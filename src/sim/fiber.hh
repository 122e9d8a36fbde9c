/**
 * @file
 * Minimal cooperative fibers.
 *
 * Each simulated process runs on its own fiber so that application code can
 * make *blocking* calls into the memory system and network (the CSIM
 * process-oriented style the paper's SPASM simulator is built on).  Fibers
 * only ever switch to/from the scheduler fiber owned by the engine, never
 * directly between each other; this keeps the switching discipline trivial
 * to reason about.
 *
 * On x86-64 the switch is a hand-rolled save/restore of the callee-saved
 * register set (see absimFiberSwitch in fiber.cc): swapcontext() makes two
 * sigprocmask() system calls per switch, which dominated the cost of the
 * millions of switches a detailed-machine sweep performs.  Other
 * architectures keep the portable ucontext path.
 */

#ifndef ABSIM_SIM_FIBER_HH
#define ABSIM_SIM_FIBER_HH

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace absim::sim {

/**
 * A bounded pool of recycled fiber stacks with reuse accounting.
 *
 * Simulations spawn thousands of short-lived helper processes (e.g.
 * parallel invalidations), and repeated runs in a sweep each spawn a
 * full machine's worth of workers; allocating + faulting a fresh stack
 * every time dominates simulation cost.  The pool lives per thread and
 * deliberately *outlives* individual runs — persistence across the
 * runs of a sweep is what turns stack allocation into reuse (see
 * core::RunContext, which snapshots the counters per run).
 *
 * Only default-sized stacks are pooled; odd sizes are one-offs.
 */
class FiberStackPool
{
  public:
    /** Only stacks of exactly this size are pooled (the Fiber default). */
    static constexpr std::size_t kPooledStackBytes = 512 * 1024;

    /** Upper bound on retained stacks (64 MiB of 512 KiB stacks). */
    static constexpr std::size_t kMaxPooled = 128;

    /** The executing thread's persistent pool. */
    static FiberStackPool &forThisThread();

    /** Unpoisons every retained stack before the memory is freed (the
     *  pool dies with its thread; see the implementation note). */
    ~FiberStackPool();

    /** A recycled stack when one fits, else a fresh allocation. */
    std::unique_ptr<unsigned char[]> acquire(std::size_t bytes);

    /** Return a stack; kept only if pool-sized and under the cap. */
    void recycle(std::unique_ptr<unsigned char[]> stack,
                 std::size_t bytes);

    /** @name Lifetime counters (monotone; snapshot to get per-run deltas). */
    /// @{
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t reused() const { return reused_; }
    /// @}

    /** Stacks currently held for reuse. */
    std::size_t pooled() const { return pool_.size(); }

  private:
    std::vector<std::unique_ptr<unsigned char[]>> pool_;
    std::uint64_t allocated_ = 0;
    std::uint64_t reused_ = 0;
};

/**
 * The exception Fiber::yield() throws inside a fiber destroyed while
 * blocked, to unwind its frames so that what they own is freed.  Only
 * the fiber trampoline catches it; code on a fiber that catches every
 * exception must rethrow this one.
 */
class FiberUnwind
{
  private:
    friend class Fiber;
    FiberUnwind() = default;
};

/**
 * A single cooperative fiber with its own stack.
 *
 * The fiber starts executing its entry function on the first resume() and
 * must eventually return from it; after that it is finished() and may not
 * be resumed again.  Inside the entry function, Fiber::yield() suspends
 * the fiber and returns control to whoever called resume().
 *
 * Destroying a fiber that is blocked in yield() unwinds it: the fiber
 * is resumed once, its yield() throws FiberUnwind, and the frames'
 * destructors run on the way back to the trampoline.
 */
class Fiber
{
  public:
    /** Default stack size: generous, since application code runs here. */
    static constexpr std::size_t kDefaultStackBytes =
        FiberStackPool::kPooledStackBytes;

    explicit Fiber(std::function<void()> entry,
                   std::size_t stack_bytes = kDefaultStackBytes);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the calling context into this fiber.  Returns when the
     * fiber yields or its entry function returns.  Must not be called from
     * inside any fiber other than the scheduler context.
     */
    void resume();

    /**
     * Suspend the currently running fiber, returning control to the
     * context that called resume().  Must be called from inside a fiber.
     */
    static void yield();

    /** The fiber currently executing, or nullptr if in the scheduler. */
    static Fiber *current();

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /**
     * Verify the canary word at the overflow end of the stack.  Runs on
     * every switch out of the fiber, and when a process advances its
     * clock in place without switching (Process::delayUntil).
     */
    void checkCanary() const;

    /**
     * Clobber the stack-overflow canary, simulating an overflow without
     * undefined behaviour.  Test-only: the next canary check fires.
     */
    void corruptStackCanaryForTest();

  private:
    static void trampoline();

    /** The canary word is intact (checkCanary() without the check). */
    bool canaryIntact() const;

    /** Prepare the suspended context for the first switch in. */
    void initContext();

    /** Scheduler side of the switch: save here, enter the fiber. */
    void switchToFiber();

    /** Fiber side of the switch: save here, reenter the scheduler. */
    void switchToScheduler();

    std::function<void()> entry_;
    std::size_t stackBytes_;
    std::unique_ptr<unsigned char[]> stack_;
#if defined(__x86_64__)
    /**
     * With the raw switch, all callee-saved state lives on the owning
     * stack; a suspended context is nothing but its stack pointer.
     */
    void *fiberSp_ = nullptr;     ///< Fiber's sp while suspended.
    void *schedulerSp_ = nullptr; ///< Scheduler's sp while fiber runs.
#else
    ucontext_t context_;
    ucontext_t returnContext_;
#endif
    bool started_ = false;
    bool finished_ = false;
    /** Set at teardown: the next return from yield() unwinds. */
    bool cancelRequested_ = false;

    /**
     * Bounds of the stack this fiber last switched from, captured by the
     * ASan fiber annotations so the return switch can name its target.
     * Unused (but cheap) when ASan is off.
     */
    const void *switchFromBottom_ = nullptr;
    std::size_t switchFromSize_ = 0;

    /**
     * TSan's fiber objects: this fiber's own context and the scheduler
     * context that resumed it, so yield/finish can announce the switch
     * back.  Null (and unused) when TSan is off.
     */
    void *tsanFiber_ = nullptr;
    void *tsanReturnFiber_ = nullptr;
};

} // namespace absim::sim

#endif // ABSIM_SIM_FIBER_HH
