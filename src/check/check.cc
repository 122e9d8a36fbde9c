#include "check/check.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace absim::check {

namespace {

void
defaultHandler(const char *file, int line, const char *expr,
               const std::string &message)
{
    std::fprintf(stderr, "%s:%d: ABSIM_CHECK failed: %s\n  %s\n", file,
                 line, expr, message.c_str());
    std::fflush(stderr);
    std::abort();
}

void
throwingHandler(const char *file, int line, const char *expr,
                const std::string &message)
{
    std::ostringstream oss;
    oss << file << ":" << line << ": ABSIM_CHECK failed: " << expr << " — "
        << message;
    throw CheckFailure(oss.str(), file, line);
}

std::atomic<std::uint64_t> g_evaluated{0};
std::atomic<std::uint64_t> g_failed{0};

} // namespace

namespace detail {

State &
threadDefaultState()
{
    static thread_local State state;
    return state;
}

} // namespace detail

// Both directions fold the pending evaluations into the state being
// replaced (counters() does the fold), so they are charged to the state
// that was current while they ran.
ScopedState::ScopedState(State &state) : prev_(&check::state())
{
    counters();
    detail::tl_state = &state;
}

ScopedState::~ScopedState()
{
    counters();
    detail::tl_state = prev_;
}

Counters
globalCounters()
{
    Counters totals;
    totals.evaluated = g_evaluated.load(std::memory_order_relaxed);
    totals.failed = g_failed.load(std::memory_order_relaxed);
    return totals;
}

void
accumulateGlobal(const Counters &delta)
{
    g_evaluated.fetch_add(delta.evaluated, std::memory_order_relaxed);
    g_failed.fetch_add(delta.failed, std::memory_order_relaxed);
}

FailureHandler
setFailureHandler(FailureHandler handler)
{
    State &current = state();
    FailureHandler prev = current.handler;
    current.handler = handler;
    return prev;
}

void
fail(const char *file, int line, const char *expr,
     const std::string &message)
{
    ++counters().failed;
    if (FailureHandler handler = state().handler; handler != nullptr)
        handler(file, line, expr, message);
    // Either no handler was installed or the handler returned; a failed
    // invariant must never continue.
    defaultHandler(file, line, expr, message);
    std::abort(); // Unreachable; keeps [[noreturn]] honest.
}

ScopedThrowOnFailure::ScopedThrowOnFailure()
    : prev_(setFailureHandler(&throwingHandler))
{
}

ScopedThrowOnFailure::~ScopedThrowOnFailure()
{
    setFailureHandler(prev_);
}

} // namespace absim::check
