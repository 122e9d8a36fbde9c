#include "sim/event_queue.hh"

#include <algorithm>
#include <sstream>

#include "check/check.hh"
#include "fault/fault.hh"
#include "sim/process.hh"

namespace absim::sim {

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Detached helpers delete themselves when they finish; free those a
    // stopped or failed run left blocked (which unwinds their fibers).
    std::vector<Process *> orphans;
    for (Process *p : processes_)
        if (p->detached())
            orphans.push_back(p);
    for (Process *p : orphans)
        delete p;
    // Destroy the callables of every still-pending event (requestStop
    // and thrown budgets leave the queue populated).  Node memory is
    // owned by the pool and freed with it.
    calendar_.forEach([](EventNode *n) {
        if (n->destroy)
            n->destroy(n->storage);
    });
}

void
EventQueue::setBudget(const RunBudget &budget)
{
    budget_ = budget;
    lastProgressDispatch_ = dispatched_;
    wallArmed_ = false;
}

void
EventQueue::unregisterProcess(Process *p)
{
    const auto it = std::find(processes_.begin(), processes_.end(), p);
    if (it != processes_.end())
        processes_.erase(it);
}

std::vector<BlockedProcessInfo>
EventQueue::blockedProcesses() const
{
    std::vector<BlockedProcessInfo> out;
    for (const Process *p : processes_) {
        if (p->finished())
            continue;
        BlockedProcessInfo info;
        info.name = p->name();
        info.state = toString(p->state());
        info.waitReason = p->waitReason();
        if (p->state() == ProcState::Delayed)
            info.delayedUntil = p->delayedUntil();
        out.push_back(std::move(info));
    }
    return out;
}

bool
EventQueue::budgetActsNext() const
{
    return (budget_.maxEvents != 0 && dispatched_ >= budget_.maxEvents) ||
           (budget_.stallDispatchLimit != 0 &&
            dispatched_ - lastProgressDispatch_ >=
                budget_.stallDispatchLimit) ||
           (budget_.maxWallSeconds > 0.0 && (dispatched_ & 0x3ff) == 0);
}

void
EventQueue::enforceBudget()
{
    // One definition of "a check acts here", shared with the in-place
    // advance, which must refuse exactly where a check below would act.
    if (!budgetActsNext())
        return;
    if (budget_.maxEvents != 0 && dispatched_ >= budget_.maxEvents) {
        std::ostringstream oss;
        oss << "event budget exceeded: " << dispatched_ << " events "
            << "dispatched (limit " << budget_.maxEvents
            << "); runaway or livelocked simulation?";
        throw BudgetExceededError(oss.str(), dispatched_, now_,
                                  blockedProcesses());
    }
    if (budget_.stallDispatchLimit != 0 &&
        dispatched_ - lastProgressDispatch_ >=
            budget_.stallDispatchLimit) {
        std::ostringstream oss;
        oss << "deadlock watchdog: no sim-time progress for "
            << dispatched_ - lastProgressDispatch_
            << " dispatches (limit " << budget_.stallDispatchLimit
            << "); the clock is stuck at " << now_ << " ns";
        throw DeadlockError(oss.str(), dispatched_, now_,
                            blockedProcesses());
    }
    if (budget_.maxWallSeconds > 0.0 && (dispatched_ & 0x3ff) == 0) {
        const auto host_now = std::chrono::steady_clock::now();
        if (!wallArmed_) {
            wallArmed_ = true;
            wallDeadline_ =
                host_now + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   budget_.maxWallSeconds));
        } else if (host_now >= wallDeadline_) {
            std::ostringstream oss;
            oss << "wall-clock budget exceeded: run passed "
                << budget_.maxWallSeconds << " s of host time after "
                << dispatched_ << " events";
            throw BudgetExceededError(oss.str(), dispatched_, now_,
                                      blockedProcesses());
        }
    }
}

void
EventQueue::stallStep()
{
    // Fault injection (StallQueue): a self-perpetuating zero-delay
    // event.  Simulated time stops advancing, which the stall watchdog
    // must detect.
    schedule(now_, [this] { stallStep(); });
}

void
EventQueue::checkSchedule(Tick when) const
{
    if (check::options().causality)
        ABSIM_CHECK(when >= now_, "event scheduled " << now_ - when
                                      << " ns in the past (now=" << now_
                                      << ")");
}

void
EventQueue::destroyNode(EventNode *node)
{
    if (node->destroy)
        node->destroy(node->storage);
    pool_.release(node);
}

void
EventQueue::dispatch(EventNode *node)
{
    now_ = node->when;
    ++dispatched_;
    if (fault::armed() &&
        fault::injector().shouldStallQueue(dispatched_)) [[unlikely]]
        stallStep();
    // Recycle on every exit path: ABSIM_CHECK failures inside
    // callbacks throw through here.
    struct Recycle
    {
        EventQueue *q;
        EventNode *n;
        ~Recycle() { q->destroyNode(n); }
    } guard{this, node};
    node->invoke(node->storage);
}

void
EventQueue::run()
{
    runUntil(kTickMax);
}

bool
EventQueue::tryAdvanceInPlace(Tick when)
{
    if (stopRequested_ || when > runLimit_ || fault::armed() ||
        budgetActsNext() ||
        (budget_.maxSimTime != 0 && when > budget_.maxSimTime))
        return false;
    if (when >= calendar_.frontTick() && !calendar_.empty())
        return false;
    // What schedule() + run() + dispatch() would have done for the
    // resume event, minus the node, the queue and the fiber switch.
    ++nextSeq_;
    if (when > now_)
        lastProgressDispatch_ = dispatched_;
    now_ = when;
    ++dispatched_;
    return true;
}

bool
EventQueue::runUntil(Tick limit)
{
    // Record the limit so a process advancing in place never passes it.
    struct LimitScope
    {
        Tick &slot;
        Tick saved;
        ~LimitScope() { slot = saved; }
    } scope{runLimit_, runLimit_};
    runLimit_ = limit;
    // Every check reads the front before it is popped, so an event a
    // check refuses stays queued.
    while (!calendar_.empty() && !stopRequested_) {
        enforceBudget();
        const Tick next = calendar_.frontTick();
        if (next > limit)
            return false;
        if (check::options().causality)
            ABSIM_CHECK(next >= now_,
                        "engine clock would run backwards: now=" << now_
                            << " next event at " << next);
        if (budget_.maxSimTime != 0 && next > budget_.maxSimTime) {
            std::ostringstream oss;
            oss << "sim-time budget exceeded: next event at " << next
                << " ns passes the " << budget_.maxSimTime
                << " ns limit";
            throw BudgetExceededError(oss.str(), dispatched_, now_,
                                      blockedProcesses());
        }
        if (next > now_)
            lastProgressDispatch_ = dispatched_;
        dispatch(calendar_.pop());
    }
    return calendar_.empty();
}

} // namespace absim::sim
