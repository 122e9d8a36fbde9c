/**
 * @file
 * Deterministic discrete-event engine.
 *
 * This is the CSIM substitute at the bottom of the simulator: events are
 * dispatched in (tick, sequence) order, so two events scheduled for the
 * same tick fire in scheduling order and every simulation run is
 * bit-for-bit reproducible.
 *
 * Internally the queue is built for the near-now tick distribution that
 * process-oriented simulation produces (almost every event lands within
 * a few microseconds of the clock):
 *
 *  - Events live in pooled EventNode slots with a fixed inline buffer
 *    for the callable (no std::function heap churn on the hot path);
 *    nodes come from an arena owned by the queue and are recycled onto
 *    a freelist as they dispatch.
 *  - Pending nodes sit in a sim::Calendar (sim/calendar.hh): one-tick
 *    FIFO buckets over a window that slides with the clock — an event
 *    is bucketed iff now <= when < now + 4096, so every bucketed event
 *    lies in [now, now + 4096) and circular bucket order from the front
 *    is tick order — plus a (tick, seq) min-heap for far-future (and,
 *    with causality checks off, past) events, popped straight off the
 *    heap once earliest.  The front tick is cached: nextEventTime() and
 *    the in-place advance test are loads, and the bitmap is rescanned
 *    only when the earliest bucket empties.
 *
 * The engine also hosts the run watchdog: a RunBudget bounds events,
 * simulated time, wall-clock time and clock stalls, and every Process
 * registers itself so the watchdog can dump what each blocked process
 * waits on when a budget trips (see sim/watchdog.hh).
 */

#ifndef ABSIM_SIM_EVENT_QUEUE_HH
#define ABSIM_SIM_EVENT_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/calendar.hh"
#include "sim/types.hh"
#include "sim/watchdog.hh"

namespace absim::sim {

class Process;

/**
 * A deterministic discrete-event simulation engine.
 *
 * The engine owns the global simulated clock.  Client code (processes,
 * resources, networks) schedules callbacks at absolute ticks; run()
 * dispatches them in (tick, insertion) order until the queue drains.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a callable at absolute time @p when.
     *
     * Accepts any nullary callable.  Callables up to kInlineBytes are
     * stored inline in a pooled event node (the zero-allocation hot
     * path); larger ones fall back to a heap-backed std::function.
     *
     * @param when  Absolute tick; must be >= now().
     * @param fn    Callable invoked when the clock reaches @p when.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        checkSchedule(when);
        emplace(when, std::forward<F>(fn));
    }

    /** Schedule a callable @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Duration delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Run events until the queue is empty: runUntil(kTickMax).
     * @throws BudgetExceededError / DeadlockError if the budget trips.
     */
    void run();

    /**
     * Run events until the clock would pass @p limit.
     *
     * Events at exactly @p limit still fire.  The budget is enforced
     * exactly as by run(), before each event is popped.
     * @return true if the queue drained, false if stopped at the limit.
     * @throws BudgetExceededError / DeadlockError if the budget trips.
     */
    bool runUntil(Tick limit);

    /**
     * Take the dispatch of a resume at @p when in place, without
     * queueing it.
     *
     * Called by a running process about to block until @p when (see
     * Process::delayUntil).  If that resume would be the engine's very
     * next dispatch — @p when lies strictly before every pending event,
     * inside the active runUntil() limit — and no stop request, armed
     * fault plan or budget check would act on it, this does exactly the
     * bookkeeping run() would do for the event (sequence number, stall
     * progress mark, clock, dispatch count) and returns true: the
     * caller just carries on, at the new time.  Otherwise it changes
     * nothing and returns false, and the caller schedules the resume
     * as usual.  A tie with a pending event always queues, because the
     * earlier-scheduled event wins on sequence number.
     */
    bool tryAdvanceInPlace(Tick when);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Tick of the earliest pending event, or kTickMax if none. */
    Tick nextEventTime() const { return calendar_.frontTick(); }

    /** Number of pending events. */
    std::size_t pending() const { return calendar_.size(); }

    /** Total number of events dispatched so far (simulation-cost metric). */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Install a run budget; run()/runUntil() raise BudgetExceededError
     * or DeadlockError (stall limit) once a limit trips.  The wall
     * clock starts at the first dispatch after the budget is set.
     */
    void setBudget(const RunBudget &budget);

    const RunBudget &budget() const { return budget_; }

    /**
     * Stop dispatching at the next event boundary; run()/runUntil()
     * return with the queue still populated.  Used by the runtime when
     * a worker dies mid-run: its peers would otherwise spin in
     * simulated time until a budget trips (or forever, with no budget
     * armed).  Sticky for the lifetime of the engine.
     */
    void requestStop() { stopRequested_ = true; }

    bool stopRequested() const { return stopRequested_; }

    /** @name Process registry (used by sim::Process).
     *
     * Every live Process registers itself so the watchdog can report
     * which processes are blocked, and on what, when a run wedges.
     */
    /// @{
    void registerProcess(Process *p) { processes_.push_back(p); }
    void unregisterProcess(Process *p);
    /// @}

    /**
     * Diagnostic snapshot of every registered, unfinished process: its
     * name, scheduling state and the wait reason recorded at the
     * blocking site.
     */
    std::vector<BlockedProcessInfo> blockedProcesses() const;

    /** Inline callable capacity of a pooled event node. */
    static constexpr std::size_t kInlineBytes = 64;

  private:
    /**
     * One pooled event: intrusive FIFO link + type-erased callable in
     * a fixed inline buffer.  invoke/destroy are plain function
     * pointers (no std::function dispatch on the hot path).
     */
    struct EventNode
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        EventNode *next = nullptr;
        void (*invoke)(void *) = nullptr;
        void (*destroy)(void *) = nullptr; ///< Null: trivially destructible.
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    template <typename D>
    static void
    invokeAs(void *p)
    {
        (*static_cast<D *>(p))();
    }

    template <typename D>
    static void
    destroyAs(void *p)
    {
        static_cast<D *>(p)->~D();
    }

    /** Causality validation half of schedule() (out of line: needs the
     *  check machinery, which this header must not drag in). */
    void checkSchedule(Tick when) const;

    /** Construct the callable into a pooled node and enqueue it. */
    template <typename F>
    void
    emplace(Tick when, F &&fn)
    {
        using D = std::decay_t<F>;
        EventNode *node = pool_.acquire();
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t)) {
            try {
                ::new (static_cast<void *>(node->storage))
                    D(std::forward<F>(fn));
            } catch (...) {
                pool_.release(node);
                throw;
            }
            node->invoke = &invokeAs<D>;
            node->destroy = std::is_trivially_destructible_v<D>
                                ? nullptr
                                : &destroyAs<D>;
        } else {
            // Oversized capture: box it in a std::function (heap), the
            // exact cost every schedule used to pay.
            static_assert(sizeof(Callback) <= kInlineBytes);
            try {
                ::new (static_cast<void *>(node->storage))
                    Callback(std::forward<F>(fn));
            } catch (...) {
                pool_.release(node);
                throw;
            }
            node->invoke = &invokeAs<Callback>;
            node->destroy = &destroyAs<Callback>;
        }
        node->when = when;
        node->seq = nextSeq_++;
        calendar_.push(node, now_);
    }

    /** Destroy the callable and return the node to the pool. */
    void destroyNode(EventNode *node);

    /** Dispatch @p node: advance the clock, invoke, recycle. */
    void dispatch(EventNode *node);

    /** Throw if the budget (events / wall clock / stall) has tripped. */
    void enforceBudget();

    /** True if enforceBudget() would throw or sample the wall clock
     *  before the next dispatch. */
    bool budgetActsNext() const;

    /** One link of the StallQueue fault-injection chain. */
    void stallStep();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;

    Calendar<EventNode> calendar_;
    NodePool<EventNode> pool_;

    RunBudget budget_;
    bool stopRequested_ = false;
    /** Limit of the enclosing runUntil() (kTickMax under run()). */
    Tick runLimit_ = kTickMax;
    /** dispatched() value at the last simulated-clock advance. */
    std::uint64_t lastProgressDispatch_ = 0;
    bool wallArmed_ = false;
    std::chrono::steady_clock::time_point wallDeadline_;

    std::vector<Process *> processes_;
};

} // namespace absim::sim

#endif // ABSIM_SIM_EVENT_QUEUE_HH
