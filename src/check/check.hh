/**
 * @file
 * Always-on invariant checking for the simulator: the ABSIM_CHECK /
 * ABSIM_DCHECK macro family and the per-thread checker configuration.
 *
 * The paper's methodology stands or falls with exact accounting: every
 * cycle of latency, contention and wait must be attributed somewhere, and
 * the coherence state the machines track must stay consistent.  Bare
 * assert() gives none of the context needed to debug a violation (and
 * vanishes under NDEBUG); these macros report file, line, the failed
 * expression and a formatted message, stay live in optimized builds, and
 * count how many checks were evaluated so tests can prove the validators
 * actually ran.
 *
 * Usage:
 *
 *     ABSIM_CHECK(when >= now_, "event scheduled " << now_ - when
 *                                   << " ticks in the past");
 *     ABSIM_DCHECK(line != nullptr, "touch of an absent line");
 *
 * ABSIM_CHECK is always compiled in.  ABSIM_DCHECK marks hot-path checks:
 * it is identical unless the build defines NDEBUG (which this project's
 * CMake never does for its own targets; embedders may).
 *
 * On failure the installed FailureHandler runs; the default prints the
 * diagnostic to stderr and aborts.  Tests install a throwing handler via
 * ScopedThrowOnFailure so that negative tests can observe the failure as
 * a CheckFailure exception instead of a process death.
 *
 * The heavier validators (coherence sweeps, overhead conservation,
 * event-kernel causality) are individually pluggable through Options so
 * that forensic runs can isolate one class of invariant at a time.
 */

#ifndef ABSIM_CHECK_CHECK_HH
#define ABSIM_CHECK_CHECK_HH

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace absim::check {

/** Tallies of checker activity.  Counters live in the per-thread (or
 *  per-run, see core::RunContext) check State, so concurrent runs in
 *  one process never contend; plain integers suffice. */
struct Counters
{
    /** Checks evaluated (passed or failed), including active DCHECKs. */
    std::uint64_t evaluated = 0;

    /** Checks that failed (only observable with a non-fatal handler). */
    std::uint64_t failed = 0;

    Counters &
    operator+=(const Counters &other)
    {
        evaluated += other.evaluated;
        failed += other.failed;
        return *this;
    }
};

/** Enable bits for the pluggable debug-mode validators.  All default to
 *  on; benchmarks that measure raw simulator speed may switch them off. */
struct Options
{
    /** SWMR + directory/cache agreement after every protocol transition. */
    bool coherence = true;

    /** Event-kernel causality: monotonic clock, no events in the past. */
    bool causality = true;

    /** latency + contention + wait must equal elapsed engine time on
     *  every accounted operation. */
    bool conservation = true;
};

/**
 * Invoked when a check fails.  May throw (tests) or log; if it returns,
 * the process aborts — a failed invariant never continues silently.
 */
using FailureHandler = void (*)(const char *file, int line,
                                const char *expr,
                                const std::string &message);

/**
 * All mutable checker state, bundled so a simulation run can own its
 * own copy.  Exactly one State is *current* per thread at any time:
 * the thread's ambient default, or whatever a ScopedState (usually a
 * core::RunContext) installed.  Because the current-state pointer is
 * thread_local, N concurrent runs on N threads never share counters,
 * options or the failure handler.
 */
struct State
{
    Counters counters;
    Options options;

    /** nullptr = the default handler (print to stderr and abort). */
    FailureHandler handler = nullptr;
};

namespace detail {
/** The thread's current state; nullptr until first use (constinit keeps
 *  the hot-path load free of a TLS init guard). */
inline thread_local constinit State *tl_state = nullptr;

/**
 * Checks evaluated on this thread and not yet added to the current
 * state's Counters::evaluated.  The check macros bump this directly (one
 * thread-local add, no State lookup); it is folded into the current
 * state whenever that state's counters are read (counters(), fail()) or
 * the current state is replaced (ScopedState), so every pending count
 * lands in the state that was current when the check ran.
 */
inline thread_local constinit std::uint64_t tl_pending = 0;

/** The thread's ambient fallback state (defined in check.cc). */
State &threadDefaultState();
} // namespace detail

/** The current thread's active check state.  Its counters.evaluated
 *  lags by the pending evaluations until counters() folds them in. */
inline State &
state()
{
    if (detail::tl_state == nullptr) [[unlikely]]
        detail::tl_state = &detail::threadDefaultState();
    return *detail::tl_state;
}

/** The current state's counters, with this thread's pending
 *  evaluations folded in first. */
inline Counters &
counters()
{
    Counters &current = state().counters;
    current.evaluated += detail::tl_pending;
    detail::tl_pending = 0;
    return current;
}

inline Options &
options()
{
    return state().options;
}

/**
 * RAII: install @p state as the current thread's check state and
 * restore the previous one on destruction.  core::RunContext uses this
 * to give every simulation run its own counters/options/handler.
 */
class ScopedState
{
  public:
    explicit ScopedState(State &state);
    ~ScopedState();

    ScopedState(const ScopedState &) = delete;
    ScopedState &operator=(const ScopedState &) = delete;

    /** The state that was current before this scope (never null). */
    State &previous() const { return *prev_; }

  private:
    State *prev_;
};

/**
 * Process-wide totals across finished runs: core::RunContext adds its
 * counters here when a run ends, so a parallel sweep's total check
 * activity stays observable even though each run counted privately.
 */
Counters globalCounters();

/** Add @p delta to the process-wide totals (thread-safe). */
void accumulateGlobal(const Counters &delta);

/** Thrown by the test failure handler (see ScopedThrowOnFailure). */
class CheckFailure : public std::runtime_error
{
  public:
    CheckFailure(const std::string &what, const char *file, int line)
        : std::runtime_error(what), file_(file), line_(line)
    {
    }

    const char *file() const { return file_; }
    int line() const { return line_; }

  private:
    const char *file_;
    int line_;
};

/**
 * Install a failure handler on the current thread's check state.
 * @param handler  New handler, or nullptr to restore the default
 *                 (print to stderr and abort).
 * @return The previously installed handler (nullptr if it was the
 *         default).
 */
FailureHandler setFailureHandler(FailureHandler handler);

/** Report a failed check.  Counts it, then runs the handler; aborts if
 *  the handler declines to throw. */
[[noreturn]] void fail(const char *file, int line, const char *expr,
                       const std::string &message);

namespace detail {
/** The out-of-line failure path of the check macros: formats the
 *  message by calling @p format on a stream, then fail()s.  Cold and
 *  never inlined, so a passing check carries no stream set-up. */
template <class Format>
[[noreturn, gnu::cold, gnu::noinline]] void
failWith(const char *file, int line, const char *expr, const Format &format)
{
    std::ostringstream oss;
    format(oss);
    fail(file, line, expr, oss.str());
}
} // namespace detail

/**
 * RAII guard that makes check failures throw CheckFailure for its
 * lifetime.  For tests only: a throw from a check inside a raw fiber
 * (outside the Runtime's worker wrapper) cannot unwind across the fiber
 * boundary and would terminate the process.
 */
class ScopedThrowOnFailure
{
  public:
    ScopedThrowOnFailure();
    ~ScopedThrowOnFailure();

    ScopedThrowOnFailure(const ScopedThrowOnFailure &) = delete;
    ScopedThrowOnFailure &operator=(const ScopedThrowOnFailure &) = delete;

  private:
    FailureHandler prev_;
};

} // namespace absim::check

/**
 * Verify @p cond, which must hold in every build.  @p msg is an ostream
 * expression chain evaluated only on failure, inside the cold
 * detail::failWith; a passing check costs its compare plus one
 * thread-local add.
 */
#define ABSIM_CHECK(cond, msg)                                              \
    do {                                                                    \
        ++::absim::check::detail::tl_pending;                               \
        if (!(cond)) [[unlikely]]                                           \
            ::absim::check::detail::failWith(                               \
                __FILE__, __LINE__, #cond,                                  \
                [&](std::ostream &absim_check_os_) {                        \
                    absim_check_os_ << msg;                                 \
                });                                                         \
    } while (0)

/** ABSIM_CHECK for hot paths: compiled out under NDEBUG. */
#if defined(NDEBUG) && !defined(ABSIM_FORCE_DCHECKS)
#define ABSIM_DCHECK(cond, msg)                                             \
    do {                                                                    \
        (void)sizeof(!(cond));                                              \
    } while (0)
#else
#define ABSIM_DCHECK(cond, msg) ABSIM_CHECK(cond, msg)
#endif

/** Equality check that prints both operands on failure.  The operands
 *  are re-evaluated for the message, so they must be side-effect free. */
#define ABSIM_CHECK_EQ(a, b, msg)                                           \
    ABSIM_CHECK((a) == (b), #a " == " #b " (" << (a) << " vs " << (b)       \
                                              << "): " << msg)

#define ABSIM_DCHECK_EQ(a, b, msg)                                          \
    ABSIM_DCHECK((a) == (b), #a " == " #b " (" << (a) << " vs " << (b)      \
                                               << "): " << msg)

/** Ordering check (a <= b) that prints both operands on failure. */
#define ABSIM_CHECK_LE(a, b, msg)                                           \
    ABSIM_CHECK((a) <= (b), #a " <= " #b " (" << (a) << " vs " << (b)       \
                                              << "): " << msg)

#endif // ABSIM_CHECK_CHECK_HH
