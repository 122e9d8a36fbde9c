/**
 * @file
 * Unit tests for the discrete-event kernel: event queue ordering, fibers,
 * processes, and simulated-time resources.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "check/check.hh"
#include "fault/fault.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/process.hh"
#include "sim/resource.hh"

namespace {

using namespace absim::sim;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextEventTime(), kTickMax);
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoBySchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.schedule(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_FALSE(eq.runUntil(15));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilEnforcesTheSimTimeBudgetLikeRun)
{
    // An event every 30 ticks against a 100-tick budget: whether the
    // engine is driven by run() or by runUntil() far past the budget,
    // the event at 120 must trip it, still queued.
    const auto drive = [](bool bounded) {
        EventQueue eq;
        RunBudget budget;
        budget.maxSimTime = 100;
        eq.setBudget(budget);
        std::function<void()> tick = [&] { eq.scheduleAfter(30, tick); };
        eq.scheduleAfter(30, tick);
        try {
            if (bounded)
                eq.runUntil(1000);
            else
                eq.run();
        } catch (const BudgetExceededError &e) {
            EXPECT_EQ(e.eventsDispatched(), 3u);
            EXPECT_EQ(e.simTime(), 90u);
            EXPECT_EQ(eq.now(), 90u);
            EXPECT_EQ(eq.pending(), 1u);
            EXPECT_EQ(eq.nextEventTime(), 120u);
            return std::string(e.what());
        }
        ADD_FAILURE() << "expected BudgetExceededError (bounded="
                      << bounded << ")";
        return std::string();
    };
    const std::string from_run_until = drive(true);
    EXPECT_NE(from_run_until.find("sim-time budget"), std::string::npos)
        << from_run_until;
    EXPECT_EQ(from_run_until, drive(false));
}

TEST(EventQueue, CountsDispatchedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.dispatched(), 7u);
}

TEST(Fiber, RunsToCompletion)
{
    bool ran = false;
    Fiber f([&] { ran = true; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    int step = 0;
    Fiber f([&] {
        step = 1;
        Fiber::yield();
        step = 2;
        Fiber::yield();
        step = 3;
    });
    f.resume();
    EXPECT_EQ(step, 1);
    f.resume();
    EXPECT_EQ(step, 2);
    f.resume();
    EXPECT_EQ(step, 3);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Process, DelayAdvancesSimulatedTime)
{
    EventQueue eq;
    Tick seen = 0;
    Process p(eq, "t", [&] {
        Process::current()->delay(100);
        seen = eq.now();
        Process::current()->delay(50);
        seen = eq.now();
    });
    p.start(0);
    eq.run();
    EXPECT_EQ(seen, 150u);
    EXPECT_TRUE(p.finished());
}

TEST(Process, SuspendWake)
{
    EventQueue eq;
    Tick woke_at = 0;
    Process sleeper(eq, "sleeper", [&] {
        Process::current()->suspend();
        woke_at = eq.now();
    });
    Process waker(eq, "waker", [&] {
        Process::current()->delay(42);
        sleeper.wake();
    });
    sleeper.start(0);
    waker.start(0);
    eq.run();
    EXPECT_EQ(woke_at, 42u);
}

TEST(Process, SpawnDetachedSelfCleans)
{
    EventQueue eq;
    int ran = 0;
    spawnDetached(eq, "helper", [&] {
        Process::current()->delay(5);
        ++ran;
    }, 0);
    eq.run();
    EXPECT_EQ(ran, 1);
}

TEST(FifoMutex, UncontendedAcquireIsFree)
{
    EventQueue eq;
    FifoMutex m;
    Duration waited = 99;
    Process p(eq, "p", [&] {
        waited = m.acquire();
        m.release();
    });
    p.start(0);
    eq.run();
    EXPECT_EQ(waited, 0u);
    EXPECT_FALSE(m.locked());
}

TEST(FifoMutex, GrantsInFifoOrderWithWaitTimes)
{
    EventQueue eq;
    FifoMutex m;
    std::vector<int> grant_order;
    std::vector<Duration> waits(3);

    // p0 takes the lock at t=0 and holds it until t=100.
    Process p0(eq, "p0", [&] {
        m.acquire();
        grant_order.push_back(0);
        Process::current()->delay(100);
        m.release();
    });
    // p1 requests at t=10, p2 at t=20; they must be served in that order.
    Process p1(eq, "p1", [&] {
        Process::current()->delay(10);
        waits[1] = m.acquire();
        grant_order.push_back(1);
        Process::current()->delay(100);
        m.release();
    });
    Process p2(eq, "p2", [&] {
        Process::current()->delay(20);
        waits[2] = m.acquire();
        grant_order.push_back(2);
        m.release();
    });
    p0.start(0);
    p1.start(0);
    p2.start(0);
    eq.run();

    EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(waits[1], 90u);  // Requested at 10, granted at 100.
    EXPECT_EQ(waits[2], 180u); // Requested at 20, granted at 200.
    EXPECT_EQ(m.totalWait(), 270u);
}

TEST(Condition, NotifyAllWakesEveryWaiter)
{
    EventQueue eq;
    Condition cond;
    int woken = 0;
    for (int i = 0; i < 3; ++i) {
        spawnDetached(eq, "waiter", [&] {
            cond.wait();
            ++woken;
        }, 0);
    }
    Process notifier(eq, "notifier", [&] {
        Process::current()->delay(10);
        cond.notifyAll();
    });
    notifier.start(0);
    eq.run();
    EXPECT_EQ(woken, 3);
}

TEST(Latch, AwaitBlocksUntilZero)
{
    EventQueue eq;
    Latch latch(3);
    Tick released_at = 0;
    Process waiter(eq, "waiter", [&] {
        latch.await();
        released_at = eq.now();
    });
    for (int i = 1; i <= 3; ++i) {
        spawnDetached(eq, "helper", [&latch, i] {
            Process::current()->delay(static_cast<Duration>(i * 10));
            latch.countDown();
        }, 0);
    }
    waiter.start(0);
    eq.run();
    EXPECT_EQ(released_at, 30u);
}

TEST(Latch, AwaitWithZeroCountReturnsImmediately)
{
    EventQueue eq;
    Latch latch(1);
    bool done = false;
    Process p(eq, "p", [&] {
        latch.countDown();
        latch.await();
        done = true;
    });
    p.start(0);
    eq.run();
    EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// In-place advance.  A delaying process whose resume would be the
// engine's very next dispatch keeps running: no queued event, no fiber
// switch (EventQueue::tryAdvanceInPlace).  Each test pins what an
// engine that queues every resume does, which the advance must keep;
// tests/test_process_diff.cc compares whole random programs.
// ---------------------------------------------------------------------------

TEST(InPlaceAdvance, EqualTickTieStillYieldsInFifoOrder)
{
    EventQueue eq;
    std::vector<std::string> order;
    const auto note = [&](const char *who) {
        order.push_back(std::string(who) + "@" + std::to_string(eq.now()));
    };
    eq.schedule(10, [&] { note("event"); });
    Process a(eq, "a", [&] {
        Process::current()->delay(10); // Ties with "event": queues behind.
        note("a");
        Process::current()->delay(5); // Ties with b's earlier resume.
        note("a");
    });
    Process b(eq, "b", [&] {
        Process::current()->delay(15);
        note("b");
    });
    a.start(0);
    b.start(0);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"event@10", "a@10", "b@15",
                                               "a@15"}));
    EXPECT_EQ(eq.dispatched(), 6u);
}

TEST(InPlaceAdvance, EventBudgetTripsAtTheSameDispatchWithTheSameDump)
{
    EventQueue eq;
    RunBudget budget;
    budget.maxEvents = 100;
    eq.setBudget(budget);
    Process spinner(eq, "spinner", [] {
        for (;;)
            Process::current()->delay(1);
    });
    Process sleeper(eq, "sleeper",
                    [] { Process::current()->suspend("never woken"); });
    spinner.start(0);
    sleeper.start(0);
    try {
        eq.run();
        FAIL() << "expected BudgetExceededError";
    } catch (const BudgetExceededError &e) {
        // Dispatch 1 is spinner's start, 2 sleeper's, then one per tick.
        EXPECT_EQ(e.eventsDispatched(), 100u);
        EXPECT_EQ(e.simTime(), 98u);
        ASSERT_EQ(e.blocked().size(), 2u);
        EXPECT_EQ(e.blocked()[0].name, "spinner");
        EXPECT_EQ(e.blocked()[0].state, "delayed");
        EXPECT_EQ(e.blocked()[0].delayedUntil, 99u);
        EXPECT_EQ(e.blocked()[1].name, "sleeper");
        EXPECT_EQ(e.blocked()[1].state, "suspended");
        EXPECT_EQ(e.blocked()[1].waitReason, "never woken");
    }
    // The tripping resume stays queued, as the dump says.
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(spinner.state(), ProcState::Delayed);
}

TEST(InPlaceAdvance, StallWatchdogTripsAtTheSameDispatchWithTheSameDump)
{
    EventQueue eq;
    RunBudget budget;
    budget.stallDispatchLimit = 50;
    eq.setBudget(budget);
    Process spinner(eq, "spinner", [] {
        for (;;)
            Process::current()->delay(0);
    });
    Process sleeper(eq, "sleeper",
                    [] { Process::current()->suspend("never woken"); });
    spinner.start(0);
    sleeper.start(0);
    try {
        eq.run();
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.eventsDispatched(), 50u);
        EXPECT_EQ(e.simTime(), 0u);
        EXPECT_NE(std::string(e.what()).find(
                      "no sim-time progress for 50 dispatches"),
                  std::string::npos)
            << e.what();
        ASSERT_EQ(e.blocked().size(), 2u);
        EXPECT_EQ(e.blocked()[0].state, "delayed");
        EXPECT_EQ(e.blocked()[0].delayedUntil, 0u);
        EXPECT_EQ(e.blocked()[1].state, "suspended");
    }
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(InPlaceAdvance, SimTimeAndWallClockBudgetsTripAsBefore)
{
    {
        EventQueue eq;
        RunBudget budget;
        budget.maxSimTime = 100;
        eq.setBudget(budget);
        Process p(eq, "p", [] {
            for (;;)
                Process::current()->delay(30);
        });
        p.start(0);
        try {
            eq.run();
            FAIL() << "expected BudgetExceededError";
        } catch (const BudgetExceededError &e) {
            // Resumes at 30, 60, 90 fire; the one at 120 must not.
            EXPECT_EQ(e.eventsDispatched(), 4u);
            EXPECT_EQ(e.simTime(), 90u);
            EXPECT_EQ(e.blocked().at(0).delayedUntil, 120u);
        }
    }
    {
        EventQueue eq;
        RunBudget budget;
        budget.maxWallSeconds = 1e-9; // Expires by the next sample.
        eq.setBudget(budget);
        Process p(eq, "p", [] {
            for (;;)
                Process::current()->delay(1);
        });
        p.start(0);
        try {
            eq.run();
            FAIL() << "expected BudgetExceededError";
        } catch (const BudgetExceededError &e) {
            // The clock is sampled every 1024 dispatches: armed at 0,
            // expired at 1024.
            EXPECT_EQ(e.eventsDispatched(), 1024u);
            EXPECT_EQ(e.simTime(), 1023u);
        }
    }
}

TEST(InPlaceAdvance, RunUntilLeavesAResumePastTheLimitDelayed)
{
    EventQueue eq;
    std::vector<Tick> seen;
    Process p(eq, "p", [&] {
        for (int i = 0; i < 4; ++i) {
            Process::current()->delay(10);
            seen.push_back(eq.now());
        }
    });
    p.start(0);
    EXPECT_FALSE(eq.runUntil(25));
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(p.state(), ProcState::Delayed);
    EXPECT_EQ(p.delayedUntil(), 30u);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.dispatched(), 3u);

    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_EQ(eq.dispatched(), 5u);
    EXPECT_TRUE(p.finished());
}

TEST(InPlaceAdvance, RequestStopIsHonoured)
{
    EventQueue eq;
    int steps = 0;
    Process p(eq, "p", [&] {
        for (;;) {
            Process::current()->delay(1);
            if (++steps == 5)
                eq.requestStop();
        }
    });
    p.start(0);
    eq.run();
    EXPECT_EQ(steps, 5);
    EXPECT_EQ(p.state(), ProcState::Delayed);
    EXPECT_EQ(p.delayedUntil(), 6u);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.dispatched(), 6u);
}

TEST(InPlaceAdvance, ArmedStallFaultStillTripsTheStallWatchdog)
{
    absim::fault::ScopedPlan scoped(absim::fault::Plan::parse("stall@20"));
    EventQueue eq;
    RunBudget budget;
    budget.stallDispatchLimit = 100;
    eq.setBudget(budget);
    Process p(eq, "p", [] {
        for (;;)
            Process::current()->delay(1);
    });
    p.start(0);
    try {
        eq.run();
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        // Dispatch 20 (the resume at 19) starts the zero-delay chain;
        // the clock stays at 19 for the next 100 dispatches.
        EXPECT_EQ(e.eventsDispatched(), 119u);
        EXPECT_EQ(e.simTime(), 19u);
    }
    EXPECT_EQ(absim::fault::injector().fired(absim::fault::Kind::StallQueue),
              1u);
}

TEST(InPlaceAdvance, CorruptedCanaryIsCaughtWithoutASwitch)
{
    absim::check::ScopedThrowOnFailure guard;
    EventQueue eq;
    bool caught = false;
    std::size_t pending_at_catch = 99;
    Process p(eq, "p", [&] {
        Fiber::current()->corruptStackCanaryForTest();
        try {
            Process::current()->delay(5); // Strictly earliest: in place.
        } catch (const absim::check::CheckFailure &) {
            caught = true;
            pending_at_catch = eq.pending();
        }
    });
    p.start(0);
    // The fiber returns with its canary still clobbered: the scheduler
    // side of that last switch fails too.
    EXPECT_THROW(eq.run(), absim::check::CheckFailure);
    EXPECT_TRUE(caught);
    EXPECT_EQ(pending_at_catch, 0u); // No resume was queued.
    EXPECT_EQ(eq.now(), 5u);
}

/** Counts its destruction: shows whether a blocked frame was unwound. */
struct Tracked
{
    int *destroyed;
    ~Tracked() { ++*destroyed; }
};

TEST(FiberTeardown, DestroyingABlockedFiberUnwindsItsFrames)
{
    int destroyed = 0;
    bool resumed_past_yield = false;
    {
        Fiber f([&] {
            Tracked t{&destroyed};
            Fiber::yield();
            resumed_past_yield = true;
        });
        f.resume();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(resumed_past_yield);
}

TEST(FiberTeardown, EngineFreesDetachedHelpersLeftBlocked)
{
    int destroyed = 0;
    {
        Condition never; // Outlives the engine that unwinds waiters.
        EventQueue eq;
        for (int i = 0; i < 3; ++i)
            spawnDetached(eq, "helper", [&] {
                Tracked t{&destroyed};
                never.wait();
            }, 0);
        eq.run();
        EXPECT_EQ(destroyed, 0);
        EXPECT_EQ(eq.blockedProcesses().size(), 3u);
    }
    EXPECT_EQ(destroyed, 3);
}

} // namespace
