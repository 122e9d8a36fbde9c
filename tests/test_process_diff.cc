/**
 * @file
 * Differential test of process resumption against an always-queue
 * reference model.
 *
 * A delaying process whose resume would be the engine's very next
 * dispatch advances the clock in place instead of queueing an event
 * and switching fibers (see EventQueue::tryAdvanceInPlace).  That must
 * be invisible: this suite runs random programs of 1-40 processes on
 * the real engine and on a reference that queues *every* resume on a
 * std::priority_queue ordered by (tick, seq) and interprets the same
 * programs as explicit state machines, with no fibers at all.  Both
 * log (now, pid, step) each time a process completes a step; the logs,
 * the dispatch counts and the final clocks must be equal.
 *
 * The op mix covers every way a process blocks or resumes: delay(0),
 * near delays (mostly strictly earliest, so in place), delays past the
 * 4096-tick calendar window, suspend/wake pairs, and FifoMutex
 * hand-offs (wake at the current tick, which ties and must queue).
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "sim/resource.hh"
#include "sim/rng.hh"

namespace {

using absim::sim::EventQueue;
using absim::sim::FifoMutex;
using absim::sim::Process;
using absim::sim::Rng;
using absim::sim::Tick;

enum class Op : std::uint8_t
{
    Delay,   ///< delay(arg): 0, near, or past the calendar window.
    Suspend, ///< Join the suspend pool, unless no other process is live.
    Wake,    ///< Wake the oldest pooled process, if any.
    Lock,    ///< Acquire the mutex, hold it for arg ticks, release.
};

struct Step
{
    Op op;
    Tick arg = 0;
};

struct Program
{
    std::vector<Tick> starts;
    std::vector<std::vector<Step>> steps; ///< Per process.
};

Program
makeProgram(std::uint64_t seed)
{
    Rng rng(seed);
    Program prog;
    const std::uint64_t procs = 1 + rng.below(40);
    for (std::uint64_t p = 0; p < procs; ++p) {
        prog.starts.push_back(rng.below(4) == 0 ? 0 : rng.below(64));
        std::vector<Step> steps(1 + rng.below(30));
        for (Step &s : steps) {
            const std::uint64_t shape = rng.below(100);
            if (shape < 15)
                s = {Op::Delay, 0};
            else if (shape < 50)
                s = {Op::Delay, 1 + rng.below(16)};
            else if (shape < 58)
                s = {Op::Delay, 4096 + rng.below(20'000)};
            else if (shape < 72)
                s = {Op::Suspend};
            else if (shape < 84)
                s = {Op::Wake};
            else
                s = {Op::Lock, rng.below(12)};
        }
        prog.steps.push_back(std::move(steps));
    }
    return prog;
}

/** One completed step: (now, pid, step index). */
using LogEntry = std::tuple<Tick, std::size_t, std::size_t>;

struct Outcome
{
    std::vector<LogEntry> log;
    std::uint64_t dispatched = 0;
    Tick now = 0;
};

/**
 * Shared pool discipline: a process may suspend only while another
 * process is live (neither finished nor pooled), and every process
 * wakes the whole pool as it finishes, so programs never deadlock.
 */
Outcome
runReal(const Program &prog)
{
    EventQueue eq;
    FifoMutex mutex;
    std::deque<std::size_t> pool;
    std::size_t live = prog.starts.size();
    Outcome out;
    std::vector<std::unique_ptr<Process>> procs;
    for (std::size_t pid = 0; pid < prog.starts.size(); ++pid) {
        procs.push_back(std::make_unique<Process>(
            eq, "p" + std::to_string(pid), [&, pid] {
                Process *self = Process::current();
                const auto wakeOne = [&] {
                    const std::size_t q = pool.front();
                    pool.pop_front();
                    ++live;
                    procs[q]->wake();
                };
                const auto &steps = prog.steps[pid];
                for (std::size_t i = 0; i < steps.size(); ++i) {
                    const Step &s = steps[i];
                    switch (s.op) {
                      case Op::Delay:
                        self->delay(s.arg);
                        break;
                      case Op::Suspend:
                        if (live >= 2) {
                            pool.push_back(pid);
                            --live;
                            self->suspend("pool");
                        }
                        break;
                      case Op::Wake:
                        if (!pool.empty())
                            wakeOne();
                        break;
                      case Op::Lock:
                        mutex.acquire();
                        self->delay(s.arg);
                        mutex.release();
                        break;
                    }
                    out.log.emplace_back(eq.now(), pid, i);
                }
                --live;
                while (!pool.empty())
                    wakeOne();
            }));
    }
    for (std::size_t pid = 0; pid < procs.size(); ++pid)
        procs[pid]->start(prog.starts[pid]);
    eq.run();
    for (const auto &p : procs)
        EXPECT_TRUE(p->finished()) << p->name();
    EXPECT_EQ(eq.pending(), 0u);
    out.dispatched = eq.dispatched();
    out.now = eq.now();
    return out;
}

/**
 * The reference: every resume is a queued (tick, seq) event, and each
 * process is a state machine (step index + phase) stepped until it
 * blocks.
 */
class Reference
{
  public:
    explicit Reference(const Program &prog)
        : prog_(prog), pc_(prog.starts.size()), live_(prog.starts.size())
    {
    }

    Outcome
    run()
    {
        for (std::size_t pid = 0; pid < prog_.starts.size(); ++pid)
            resumeAt(prog_.starts[pid], pid);
        while (!queue_.empty()) {
            const Event ev = queue_.top();
            queue_.pop();
            now_ = ev.when;
            ++out_.dispatched;
            advance(ev.pid);
        }
        out_.now = now_;
        return out_;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::size_t pid;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when > b.when ||
                   (a.when == b.when && a.seq > b.seq);
        }
    };
    enum class Phase : std::uint8_t
    {
        Start,    ///< About to begin the current step.
        Blocked,  ///< The current step's (only) wait just ended.
        Acquired, ///< Lock: the mutex is ours, hold delay not yet begun.
        Held,     ///< Lock: the hold delay just ended.
    };
    struct Pc
    {
        std::size_t step = 0;
        Phase phase = Phase::Start;
    };

    void
    resumeAt(Tick when, std::size_t pid)
    {
        queue_.push(Event{when, seq_++, pid});
    }

    void
    wakeOne()
    {
        const std::size_t q = pool_.front();
        pool_.pop_front();
        ++live_;
        resumeAt(now_, q);
    }

    void
    complete(std::size_t pid)
    {
        out_.log.emplace_back(now_, pid, pc_[pid].step);
        ++pc_[pid].step;
        pc_[pid].phase = Phase::Start;
    }

    /** Run @p pid from its program counter until it blocks or ends. */
    void
    advance(std::size_t pid)
    {
        const auto &steps = prog_.steps[pid];
        Pc &pc = pc_[pid];
        while (pc.step < steps.size()) {
            const Step &s = steps[pc.step];
            switch (pc.phase) {
              case Phase::Start:
                switch (s.op) {
                  case Op::Delay:
                    pc.phase = Phase::Blocked;
                    resumeAt(now_ + s.arg, pid);
                    return;
                  case Op::Suspend:
                    if (live_ >= 2) {
                        pool_.push_back(pid);
                        --live_;
                        pc.phase = Phase::Blocked;
                        return;
                    }
                    complete(pid);
                    break;
                  case Op::Wake:
                    if (!pool_.empty())
                        wakeOne();
                    complete(pid);
                    break;
                  case Op::Lock:
                    if (!locked_ && lockWaiters_.empty()) {
                        locked_ = true;
                        pc.phase = Phase::Acquired;
                        break;
                    }
                    lockWaiters_.push_back(pid);
                    pc.phase = Phase::Acquired; // Handed off on wake.
                    return;
                }
                break;
              case Phase::Blocked:
                complete(pid);
                break;
              case Phase::Acquired:
                pc.phase = Phase::Held;
                resumeAt(now_ + s.arg, pid);
                return;
              case Phase::Held:
                if (lockWaiters_.empty()) {
                    locked_ = false;
                } else {
                    const std::size_t next = lockWaiters_.front();
                    lockWaiters_.pop_front();
                    resumeAt(now_, next);
                }
                complete(pid);
                break;
            }
        }
        --live_;
        while (!pool_.empty())
            wakeOne();
    }

    const Program &prog_;
    std::vector<Pc> pc_;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
    std::deque<std::size_t> pool_;
    std::size_t live_;
    bool locked_ = false;
    std::deque<std::size_t> lockWaiters_;
    Outcome out_;
};

TEST(ProcessDiff, RandomProgramsMatchAlwaysQueueReference)
{
    std::uint64_t steps = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Program prog = makeProgram(seed * 0x9e3779b97f4a7c15ULL);
        const Outcome real = runReal(prog);
        const Outcome ref = Reference(prog).run();
        ASSERT_EQ(real.log.size(), ref.log.size()) << "seed " << seed;
        for (std::size_t i = 0; i < real.log.size(); ++i)
            ASSERT_EQ(real.log[i], ref.log[i])
                << "seed " << seed << ": step completion " << i
                << " differs";
        ASSERT_EQ(real.dispatched, ref.dispatched) << "seed " << seed;
        ASSERT_EQ(real.now, ref.now) << "seed " << seed;
        steps += real.log.size();
    }
    // Every step of every program completes exactly once.
    std::uint64_t expected = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        for (const auto &s :
             makeProgram(seed * 0x9e3779b97f4a7c15ULL).steps)
            expected += s.size();
    EXPECT_EQ(steps, expected);
}

TEST(ProcessDiff, SingleProcessRunsEntirelyInPlace)
{
    // Alone on the engine, every delay is strictly earliest: the counts
    // still match one dispatch per resume, exactly as if queued.
    Program prog;
    prog.starts = {5};
    prog.steps = {{{Op::Delay, 0},
                   {Op::Delay, 3},
                   {Op::Delay, 5000},
                   {Op::Delay, 100'000},
                   {Op::Delay, 0}}};
    const Outcome real = runReal(prog);
    const Outcome ref = Reference(prog).run();
    EXPECT_EQ(real.log, ref.log);
    EXPECT_EQ(real.dispatched, 6u); // Start + five resumes.
    EXPECT_EQ(ref.dispatched, 6u);
    EXPECT_EQ(real.now, Tick{5 + 3 + 5000 + 100'000});
}

} // namespace
