/**
 * @file
 * The invariant-checker subsystem (src/check): macro semantics, and one
 * negative test per validator proving that the coherence, causality,
 * conservation and fiber-misuse checkers actually fire — plus positive
 * tests showing they accept real workloads.
 *
 * Every negative test installs ScopedThrowOnFailure so the failure is
 * observable as a CheckFailure instead of a process abort.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "check/check.hh"
#include "core/experiment.hh"
#include "machine_fixture.hh"
#include "mem/addr.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

namespace {

using namespace absim;

// -------------------------------------------------------------- Macros

TEST(CheckMacros, PassingCheckCountsAsEvaluated)
{
    const std::uint64_t before = check::counters().evaluated;
    ABSIM_CHECK(1 + 1 == 2, "arithmetic broke");
    ABSIM_DCHECK(true, "never printed");
    EXPECT_EQ(check::counters().evaluated, before + 2);
}

TEST(CheckMacros, FailureReportsFileLineExprAndMessage)
{
    check::ScopedThrowOnFailure guard;
    const std::uint64_t failed_before = check::counters().failed;
    try {
        const int answer = 41;
        ABSIM_CHECK(answer == 42, "got " << answer << " instead");
        FAIL() << "check did not fire";
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("test_check.cc"), std::string::npos) << what;
        EXPECT_NE(what.find("answer == 42"), std::string::npos) << what;
        EXPECT_NE(what.find("got 41 instead"), std::string::npos) << what;
        EXPECT_NE(std::string(e.file()).find("test_check.cc"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
    EXPECT_EQ(check::counters().failed, failed_before + 1);
}

TEST(CheckMacros, DcheckIsLiveInThisBuild)
{
    // The project strips NDEBUG from all its own build types, so hot-path
    // DCHECKs must be active here.
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(ABSIM_DCHECK(false, "dchecks must be live"),
                 check::CheckFailure);
}

TEST(CheckMacros, EqualityCheckPrintsBothOperands)
{
    check::ScopedThrowOnFailure guard;
    int line = 0;
    try {
        line = __LINE__ + 1;
        ABSIM_CHECK_EQ(2 + 2, 5, "arithmetic");
        FAIL() << "check did not fire";
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4 vs 5"), std::string::npos) << what;
        // The cold failure path still reports everything the inline
        // formatting did: expression, operands, message, file and line.
        EXPECT_NE(what.find("2 + 2 == 5 (4 vs 5): arithmetic"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("(2 + 2) == (5)"), std::string::npos) << what;
        EXPECT_NE(what.find("test_check.cc:" + std::to_string(line)),
                  std::string::npos)
            << what;
        EXPECT_EQ(e.line(), line);
    }
}

TEST(CheckMacros, HandlerRestoredAfterScope)
{
    {
        check::ScopedThrowOnFailure guard;
    }
    // Installing a handler returns what the scope left behind: the
    // default (nullptr).
    check::FailureHandler prev = check::setFailureHandler(nullptr);
    EXPECT_EQ(prev, nullptr);
}

TEST(CheckMacros, HandlerAndCountersArePerThread)
{
    check::ScopedThrowOnFailure guard;
    const std::uint64_t mine = check::counters().evaluated;
    check::FailureHandler other_handler =
        reinterpret_cast<check::FailureHandler>(1);
    std::uint64_t other_evaluated = ~0ull;
    check::State peer_run;
    constexpr std::uint64_t kPeerChecks = 70001;
    constexpr std::uint64_t kMyChecks = 100000;
    std::thread peer([&] {
        // A fresh thread sees its own clean state, not this thread's
        // throwing handler or counter tallies — so concurrent runs
        // can't race on handler installation.
        other_handler = check::state().handler;
        other_evaluated = check::counters().evaluated;
        ABSIM_CHECK(true, "tallied on the peer thread only");
        // Unread evaluations, concurrent with this thread's, fold into
        // the peer's own state when its scope ends.
        check::ScopedState scope(peer_run);
        for (std::uint64_t i = 0; i < kPeerChecks; ++i)
            ABSIM_CHECK(i < kPeerChecks, "loop bound");
    });
    for (std::uint64_t i = 0; i < kMyChecks; ++i)
        ABSIM_CHECK(i < kMyChecks, "loop bound");
    peer.join();
    EXPECT_EQ(other_handler, nullptr);
    EXPECT_EQ(other_evaluated, 0u);
    EXPECT_EQ(peer_run.counters.evaluated, kPeerChecks);
    EXPECT_EQ(check::counters().evaluated, mine + kMyChecks);
}

TEST(CheckMacros, PassingChecksNeverEvaluateTheirMessage)
{
    int touched = 0;
    ABSIM_CHECK(true, "side effect " << ++touched);
    ABSIM_DCHECK(true, "side effect " << ++touched);
    ABSIM_CHECK_EQ(3, 3, "side effect " << ++touched);
    ABSIM_CHECK_LE(3, 4, "side effect " << ++touched);
    EXPECT_EQ(touched, 0);
}

TEST(CheckMacros, OrderingCheckPrintsBothOperands)
{
    check::ScopedThrowOnFailure guard;
    const std::uint64_t low = 9;
    const std::uint64_t high = 4;
    int line = 0;
    try {
        line = __LINE__ + 1;
        ABSIM_CHECK_LE(low, high, "window");
        FAIL() << "check did not fire";
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("low <= high (9 vs 4): window"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("(low) <= (high)"), std::string::npos) << what;
        EXPECT_EQ(e.line(), line);
    }
}

// ------------------------------------------------- Evaluation counter

TEST(CheckCounter, PendingEvaluationsLandInTheStateCurrentWhenTheyRan)
{
    check::State outer;
    check::State inner;
    {
        check::ScopedState outer_scope(outer);
        ABSIM_CHECK(true, "outer");
        {
            check::ScopedState inner_scope(inner);
            ABSIM_CHECK(true, "inner");
            ABSIM_CHECK(true, "inner");
            {
                check::State innermost;
                check::ScopedState innermost_scope(innermost);
                ABSIM_CHECK(true, "innermost");
                EXPECT_EQ(check::counters().evaluated, 1u);
            }
            ABSIM_CHECK(true, "inner");
        }
        // Nothing read the counters in between: the scopes' ends folded
        // each pending count into the state that was current.
        EXPECT_EQ(inner.counters.evaluated, 3u);
        ABSIM_CHECK(true, "outer");
    }
    EXPECT_EQ(outer.counters.evaluated, 2u);
    EXPECT_EQ(inner.counters.evaluated, 3u);
}

TEST(CheckCounter, ReadingTheCountersFoldsPendingEvaluationsOnce)
{
    check::State run;
    check::ScopedState scope(run);
    ABSIM_CHECK(true, "a");
    ABSIM_CHECK(true, "b");
    EXPECT_EQ(check::counters().evaluated, 2u);
    EXPECT_EQ(check::counters().evaluated, 2u);
    EXPECT_EQ(run.counters.evaluated, 2u);
}

TEST(CheckCounter, FailureFoldsPendingEvaluationsBeforeTheHandlerRuns)
{
    check::State run;
    check::ScopedState scope(run);
    check::ScopedThrowOnFailure guard;
    ABSIM_CHECK(true, "passes");
    EXPECT_THROW(ABSIM_CHECK(false, "fails"), check::CheckFailure);
    // Read the member directly: fail() already folded both evaluations.
    EXPECT_EQ(run.counters.evaluated, 2u);
    EXPECT_EQ(run.counters.failed, 1u);
}

/// Engine evaluations over a fiber that yields @p steps times and runs
/// @p per_step checks of its own before each yield.
std::uint64_t
evaluationsOverFiber(int steps, int per_step)
{
    check::State run;
    check::ScopedState scope(run);
    sim::Fiber fiber([steps, per_step] {
        for (int s = 0; s < steps; ++s) {
            for (int c = 0; c < per_step; ++c)
                ABSIM_CHECK(true, "inside the fiber");
            sim::Fiber::yield();
        }
    });
    while (!fiber.finished())
        fiber.resume();
    return check::counters().evaluated;
}

TEST(CheckCounter, EvaluationsInsideFibersCountExactlyAcrossSwitches)
{
    // The fiber's own guards (canary, resume/yield) evaluate checks
    // too; the same switch pattern with and without body checks
    // isolates exactly the body's.
    evaluationsOverFiber(5, 0); // Warm the stack pool for both runs.
    const std::uint64_t bare = evaluationsOverFiber(5, 0);
    const std::uint64_t checked = evaluationsOverFiber(5, 3);
    EXPECT_GT(bare, 0u);
    EXPECT_EQ(checked - bare, 15u);
}

// ----------------------------------------------------------- Causality

TEST(CausalityChecker, RejectsEventScheduledInThePast)
{
    sim::EventQueue eq;
    eq.schedule(10, [&eq] {
        eq.schedule(5, [] {}); // 5 < now() == 10: time travel.
    });
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(eq.run(), check::CheckFailure);
}

TEST(CausalityChecker, AcceptsPresentAndFutureEvents)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.schedule(10, [&] { ++fired; }); // Same tick is fine.
        eq.schedule(20, [&] { ++fired; });
    });
    EXPECT_NO_THROW(eq.run());
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 20u);
}

// -------------------------------------------------------- Conservation

TEST(ConservationChecker, RejectsUnaccountedEngineTime)
{
    test::MachineHarness h(mach::MachineKind::LogP,
                           net::TopologyKind::Full, 1);
    check::ScopedThrowOnFailure guard;
    // Claim 1 tick of latency when no engine time elapsed at all: the
    // buckets no longer partition the blocked interval.
    EXPECT_THROW(
        h.run([](rt::Proc &p) { p.absorbEngineTime(1, 0, 0); }),
        check::CheckFailure);
}

TEST(ConservationChecker, CanBeDisabledForForensics)
{
    check::options().conservation = false;
    test::MachineHarness h(mach::MachineKind::LogP,
                           net::TopologyKind::Full, 1);
    check::ScopedThrowOnFailure guard;
    EXPECT_NO_THROW(
        h.run([](rt::Proc &p) { p.absorbEngineTime(1, 0, 0); }));
    check::options().conservation = true;
}

// ----------------------------------------------------------- Coherence

/** Shared-array workload with real sharing: everyone reads everything,
 *  then writes a private slice (forcing upgrades + invalidations). */
void
contendedWorkload(rt::Proc &p, mem::Addr base, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i)
        p.memRead(base + i * 8, 8);
    const std::uint32_t chunk = words / p.procs();
    for (std::uint32_t i = 0; i < chunk; ++i)
        p.memWrite(base + (p.node() * chunk + i) * 8, 8);
    for (std::uint32_t i = 0; i < words; ++i)
        p.memRead(base + ((i + p.node()) % words) * 8, 8);
}

TEST(CoherenceChecker, AcceptsContendedTargetWorkload)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Hypercube, 4);
    const mem::Addr base =
        h.heap.allocate(64 * 8, rt::Placement::Interleaved);
    h.run([base](rt::Proc &p) { contendedWorkload(p, base, 64); });
    EXPECT_NO_THROW(h.machine->checkInvariants());
    // Proof the validator ran: per-transaction checks plus the sweep.
    EXPECT_GT(h.target().checker().blocksChecked(), 64u);
}

TEST(CoherenceChecker, AcceptsContendedLogPCWorkload)
{
    test::MachineHarness h(mach::MachineKind::LogPC,
                           net::TopologyKind::Hypercube, 4);
    const mem::Addr base =
        h.heap.allocate(64 * 8, rt::Placement::Interleaved);
    h.run([base](rt::Proc &p) { contendedWorkload(p, base, 64); });
    EXPECT_NO_THROW(h.machine->checkInvariants());
    EXPECT_GT(h.logpc().checker().blocksChecked(), 64u);
}

TEST(CoherenceChecker, DetectsSecondOwnerInTargetMachine)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // Forge a second ownership copy behind the directory's back: SWMR is
    // now violated (two caches believe they own the block).
    h.target().cacheForTest(1).install(mem::blockOf(addr),
                                       mem::LineState::Dirty);
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(h.machine->checkInvariants(), check::CheckFailure);
}

TEST(CoherenceChecker, DetectsDirectoryCacheDisagreement)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // Drop the directory's owner field while node 0 still holds the
    // block Dirty: directory and cache now disagree.
    h.target().directoryForTest().entry(mem::blockOf(addr)).owner =
        mem::DirectoryEntry::kNoOwner;
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(h.machine->checkInvariants(), check::CheckFailure);
}

TEST(CoherenceChecker, DetectsStaleOracleSharerInLogPC)
{
    test::MachineHarness h(mach::MachineKind::LogPC,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // The LogP+C oracle is exact: a sharer bit for a node with no
    // resident copy is a bookkeeping bug, not a tolerated staleness.
    h.logpc().oracleForTest(mem::blockOf(addr)).sharers |= 1u << 1;
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(h.machine->checkInvariants(), check::CheckFailure);
}

TEST(CoherenceChecker, ForgedCopyTripsTheNextTransitionAtP32)
{
    // A copy forged on a non-sharer must be caught by the per-transition
    // check of the next access to its block, not only by the drain sweep:
    // the holder shadow lists the forged holder, so the check visits it.
    for (const auto kind :
         {mach::MachineKind::Target, mach::MachineKind::LogPC}) {
        SCOPED_TRACE(mach::toString(kind));
        test::MachineHarness h(kind, net::TopologyKind::Full, 32);
        const mem::Addr addr =
            h.heap.allocate(8, rt::Placement::OnNode, 0);
        mem::SetAssocCache &forged =
            kind == mach::MachineKind::Target ? h.target().cacheForTest(5)
                                              : h.logpc().cacheForTest(5);
        bool read_returned = false;
        check::ScopedThrowOnFailure guard;
        try {
            h.run([&](rt::Proc &p) {
                if (p.node() == 0) {
                    p.memWrite(addr, 8);
                    forged.install(mem::blockOf(addr),
                                   mem::LineState::Valid);
                } else if (p.node() == 1) {
                    p.computeNs(1'000'000); // Long after the forgery.
                    p.memRead(addr, 8);
                    read_returned = true;
                }
            });
            FAIL() << "forged copy went unnoticed";
        } catch (const check::CheckFailure &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("node 5 holds block"), std::string::npos)
                << what;
            EXPECT_NE(what.find("without a sharer bit"), std::string::npos)
                << what;
        }
        EXPECT_FALSE(read_returned) << "caught only after the access";
    }
}

TEST(CoherenceChecker, DrainSweepReportsShadowDrift)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    ASSERT_NO_THROW(h.machine->checkInvariants());

    // The cache still holds the block, but the shadow forgot it.
    h.target().holdersForTest().remove(mem::blockOf(addr), 0);
    check::ScopedThrowOnFailure guard;
    try {
        h.machine->checkInvariants();
        FAIL() << "shadow drift went unnoticed";
    } catch (const check::CheckFailure &e) {
        EXPECT_NE(std::string(e.what()).find("holder shadow drift"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CoherenceChecker, DrainSweepReportsLowestBlockFirst)
{
    test::MachineHarness h(mach::MachineKind::LogPC,
                           net::TopologyKind::Full, 2);
    h.run([](rt::Proc &) {});
    // Two phantom shadow entries no cache holds: the sweep must name the
    // lower block whatever order the hash tables store them in.
    h.logpc().holdersForTest().add(9000, 1);
    h.logpc().holdersForTest().add(7000, 1);
    check::ScopedThrowOnFailure guard;
    try {
        h.machine->checkInvariants();
        FAIL() << "phantom holders went unnoticed";
    } catch (const check::CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("drift on block 7000:"), std::string::npos)
            << what;
    }
}

TEST(CoherenceChecker, CanBeDisabledForForensics)
{
    test::MachineHarness h(mach::MachineKind::Target,
                           net::TopologyKind::Full, 2);
    const mem::Addr addr = h.heap.allocate(8, rt::Placement::OnNode, 0);
    h.run([addr](rt::Proc &p) {
        if (p.node() == 0)
            p.memWrite(addr, 8);
    });
    h.target().cacheForTest(1).install(mem::blockOf(addr),
                                       mem::LineState::Dirty);
    check::options().coherence = false;
    EXPECT_NO_THROW(h.machine->checkInvariants());
    check::options().coherence = true;
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(h.machine->checkInvariants(), check::CheckFailure);
}

// -------------------------------------------------------- Fiber misuse

TEST(FiberGuards, ResumeOfFinishedFiberFails)
{
    sim::Fiber fiber([] {});
    fiber.resume();
    ASSERT_TRUE(fiber.finished());
    check::ScopedThrowOnFailure guard;
    EXPECT_THROW(fiber.resume(), check::CheckFailure);
}

TEST(FiberGuards, StackCanaryDetectsOverflow)
{
    sim::Fiber fiber([] { sim::Fiber::yield(); });
    fiber.resume(); // Runs until the yield; canary intact so far.
    fiber.corruptStackCanaryForTest();
    check::ScopedThrowOnFailure guard;
    // The canary check fires on the scheduler side of the next switch,
    // where a throwing handler can unwind safely.
    EXPECT_THROW(fiber.resume(), check::CheckFailure);
}

// ------------------------------------------- Whole-application accepts

TEST(CheckersEndToEnd, AcceptExistingAppsOnSmallConfigs)
{
    // All validators are on by default; a full application run across all
    // three machine characterizations must pass every per-transaction
    // check and the drain-time sweep inside core::runOne().
    const std::uint64_t evaluated_before = check::counters().evaluated;
    for (const mach::MachineKind kind :
         {mach::MachineKind::Target, mach::MachineKind::LogP,
          mach::MachineKind::LogPC}) {
        core::RunConfig config;
        config.app = "fft";
        config.params.n = 64;
        config.machine = kind;
        config.topology = net::TopologyKind::Hypercube;
        config.procs = 4;
        config.checkResult = true;
        EXPECT_NO_THROW(core::runOne(config)) << toString(kind);
    }
    EXPECT_GT(check::counters().evaluated, evaluated_before);
}

} // namespace
