#include "core/run_context.hh"

namespace absim::core {

check::State
RunContext::inheritCheckState()
{
    const check::State &ambient = check::state();
    check::State inherited;
    inherited.options = ambient.options;
    inherited.handler = ambient.handler;
    return inherited; // Counters start at zero: they are per-run.
}

sim::Trace
RunContext::inheritTrace()
{
    sim::Trace &ambient = sim::Trace::instance();
    sim::Trace inherited;
    inherited.setMask(ambient.mask());
    inherited.setSink(&ambient.sink());
    return inherited;
}

RunContext::RunContext()
    : checkState_(inheritCheckState()), trace_(inheritTrace()),
      adopted_(fault::armed()), checkScope_(checkState_),
      traceScope_(trace_)
{
    if (adopted_) {
        activeInjector_ = &fault::injector();
    } else {
        injectorScope_.emplace(injector_);
        activeInjector_ = &injector_;
    }
    stackPool_ = &sim::FiberStackPool::forThisThread();
    stackAllocBase_ = stackPool_->allocated();
    stackReuseBase_ = stackPool_->reused();
}

RunContext::~RunContext()
{
    // Aggregate this run's counters before the scopes (destroyed after
    // this body) uninstall the context from the thread.  The context's
    // state is still current, so counters() folds this thread's pending
    // evaluations into it first.
    check::counters();
    checkScope_.previous().counters += checkState_.counters;
    check::accumulateGlobal(checkState_.counters);
}

} // namespace absim::core
