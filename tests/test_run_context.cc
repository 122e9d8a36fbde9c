/**
 * @file
 * Tests for core::RunContext — the per-run ownership root that replaced
 * the process singletons.  Covers the inheritance semantics (options
 * and handler copied, trace copied, armed injector adopted), counter
 * aggregation at destruction, and the headline property: per-thread
 * isolation of all formerly-global simulator state.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/run_context.hh"

namespace {

using namespace absim;

TEST(RunContext, InheritsCheckOptionsAndRestoresThemAfter)
{
    check::State ambient;
    ambient.options.coherence = false;
    check::ScopedState scope(ambient);
    {
        core::RunContext context;
        // The run sees the enclosing configuration...
        EXPECT_FALSE(check::options().coherence);
        EXPECT_TRUE(check::options().causality);
        // ...but its state is a private copy: mutations don't leak out.
        check::options().causality = false;
    }
    EXPECT_FALSE(ambient.options.coherence);
    EXPECT_TRUE(ambient.options.causality);
}

TEST(RunContext, InheritsFailureHandler)
{
    check::ScopedThrowOnFailure guard;
    const check::FailureHandler ambient_handler = check::state().handler;
    ASSERT_NE(ambient_handler, nullptr);
    {
        core::RunContext context;
        EXPECT_EQ(check::state().handler, ambient_handler);
    }
    EXPECT_EQ(check::state().handler, ambient_handler);
}

TEST(RunContext, AggregatesCountersIntoEnclosingStateAndGlobals)
{
    check::State ambient;
    check::ScopedState scope(ambient);
    const check::Counters global_before = check::globalCounters();
    {
        core::RunContext context;
        EXPECT_EQ(check::counters().evaluated, 0u);
        ABSIM_CHECK(true, "never fires");
        ABSIM_CHECK(true, "never fires");
        EXPECT_EQ(check::counters().evaluated, 2u);
        // Not yet visible outside the run.
        EXPECT_EQ(ambient.counters.evaluated, 0u);
    }
    EXPECT_EQ(ambient.counters.evaluated, 2u);
    EXPECT_EQ(check::globalCounters().evaluated,
              global_before.evaluated + 2);
    {
        core::RunContext context;
        for (int i = 0; i < 5; ++i)
            ABSIM_CHECK(true, "never fires");
        // Nothing reads this run's counters before it ends: the pending
        // evaluations still reach the enclosing state and the globals.
    }
    EXPECT_EQ(ambient.counters.evaluated, 7u);
    EXPECT_EQ(check::globalCounters().evaluated,
              global_before.evaluated + 7);
}

TEST(RunContext, InstallsFreshInertInjectorWhenNoPlanIsArmed)
{
    fault::Injector &ambient = fault::injector();
    core::RunContext context;
    EXPECT_FALSE(context.adoptedAmbientInjector());
    EXPECT_NE(&context.faultInjector(), &ambient);
    EXPECT_EQ(&fault::injector(), &context.faultInjector());
    EXPECT_FALSE(fault::armed());
}

TEST(RunContext, AdoptsTheAmbientInjectorWhenAPlanIsArmed)
{
    fault::Plan plan = fault::Plan::parse("corrupt@1000000");
    fault::ScopedPlan armed(plan);
    fault::Injector &ambient = fault::injector();
    {
        core::RunContext context;
        EXPECT_TRUE(context.adoptedAmbientInjector());
        // Adoption, not replacement: firing state latches in the
        // enclosing thread's injector and survives the run (runOneSafe
        // retries and post-run fired() assertions depend on this).
        EXPECT_EQ(&context.faultInjector(), &ambient);
        EXPECT_EQ(&fault::injector(), &ambient);
        EXPECT_TRUE(fault::armed());
    }
    EXPECT_TRUE(fault::armed());
}

TEST(RunContext, InheritsTraceConfigurationWithoutLeakingChanges)
{
    std::ostringstream sink;
    sim::Trace &ambient = sim::Trace::instance();
    ambient.enable(sim::TraceCategory::Protocol);
    ambient.setSink(&sink);
    {
        core::RunContext context;
        EXPECT_TRUE(sim::Trace::instance().enabled(
            sim::TraceCategory::Protocol));
        EXPECT_EQ(&sim::Trace::instance().sink(), &sink);
        sim::Trace::instance().enable(sim::TraceCategory::Network);
    }
    EXPECT_FALSE(ambient.enabled(sim::TraceCategory::Network));
    ambient.disableAll();
    ambient.setSink(nullptr); // Back to std::cerr.
}

TEST(RunContext, StateIsPerThread)
{
    fault::Plan plan = fault::Plan::parse("wedge@1000000:node=1");
    fault::ScopedPlan armed(plan);
    check::counters().evaluated += 100;
    const std::uint64_t mine = check::counters().evaluated;

    bool other_armed = true;
    std::uint64_t other_evaluated = ~0ull;
    std::uint32_t other_trace_mask = ~0u;
    std::thread peer([&] {
        // A fresh thread starts from clean ambient state: no fault
        // plan, zero counters, tracing off — nothing leaks across.
        other_armed = fault::armed();
        other_evaluated = check::counters().evaluated;
        other_trace_mask = sim::Trace::instance().mask();
    });
    peer.join();

    EXPECT_FALSE(other_armed);
    EXPECT_EQ(other_evaluated, 0u);
    EXPECT_EQ(other_trace_mask, 0u);
    EXPECT_EQ(check::counters().evaluated, mine);
    EXPECT_TRUE(fault::armed());
}

} // namespace
