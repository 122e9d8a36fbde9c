/**
 * @file
 * Tests for the serve daemon's content-addressed cache key
 * (core/cache_key.hh): the canonical rendering must be stable under
 * request-field reordering and machine-name aliasing, and distinct
 * whenever any result-determining input differs.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/cache_key.hh"
#include "core/figures.hh"
#include "machines/registry.hh"
#include "serve/protocol.hh"
#include "trace_replay/format.hh"

namespace {

using namespace absim;

core::RunConfig
baseConfig()
{
    core::RunConfig config;
    config.app = "is";
    config.params.n = 256;
    config.procs = 8;
    return config;
}

TEST(CacheKey, HashMatchesCanonicalString)
{
    const core::RunConfig config = baseConfig();
    const sim::RunBudget budget;
    const std::string canon = core::canonicalRunKey(config, budget);
    EXPECT_EQ(core::runKeyHash(config, budget), trace::fnv1a64(canon));
    EXPECT_NE(canon.find("app=is;"), std::string::npos);
    EXPECT_NE(canon.find(";procs=8;"), std::string::npos);
}

TEST(CacheKey, RequestFieldOrderDoesNotSplitTheCache)
{
    // Two spellings of the same request, fields shuffled: the key is
    // rendered from the parsed config in canonical order, so the wire
    // order can never split the cache.
    const std::string a = "{\"op\":\"run\",\"app\":\"is\","
                          "\"machine\":\"logp+c\",\"procs\":8,"
                          "\"size\":256,\"seed\":7}";
    const std::string b = "{\"seed\":7,\"size\":256,\"procs\":8,"
                          "\"machine\":\"logp+c\",\"app\":\"is\","
                          "\"op\":\"run\"}";
    serve::Request ra;
    serve::Request rb;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(a, core::RunPolicy{}, ra, error))
        << error;
    ASSERT_TRUE(serve::parseRequest(b, core::RunPolicy{}, rb, error))
        << error;
    EXPECT_EQ(core::canonicalRunKey(ra.config, ra.policy.budget),
              core::canonicalRunKey(rb.config, rb.policy.budget));
}

TEST(CacheKey, MachineAliasesCollapseToTheCanonicalName)
{
    // The registry accepts both the canonical machine name ("logp+c")
    // and its '+'-stripped figure-column spelling ("logpc"); the key
    // must collapse them so the same run never caches twice.
    core::RunConfig canonical = baseConfig();
    core::RunConfig alias = baseConfig();
    ASSERT_TRUE(mach::parseMachineKind("logp+c", canonical.machine));
    ASSERT_TRUE(mach::parseMachineKind("logpc", alias.machine));
    const sim::RunBudget budget;
    EXPECT_EQ(core::canonicalRunKey(canonical, budget),
              core::canonicalRunKey(alias, budget));
    EXPECT_NE(core::canonicalRunKey(canonical, budget)
                  .find("machine=logp+c;"),
              std::string::npos);
}

TEST(CacheKey, SeedAndSizeChangesProduceDistinctKeys)
{
    const sim::RunBudget budget;
    core::RunConfig config = baseConfig();
    const std::uint64_t base = core::runKeyHash(config, budget);

    config.params.seed += 1;
    const std::uint64_t seeded = core::runKeyHash(config, budget);
    EXPECT_NE(base, seeded);

    config = baseConfig();
    config.params.n *= 2;
    EXPECT_NE(base, core::runKeyHash(config, budget));

    config = baseConfig();
    config.procs = 16;
    EXPECT_NE(base, core::runKeyHash(config, budget));
}

TEST(CacheKey, DeterministicBudgetFieldsAreKeyedWallClockIsNot)
{
    const core::RunConfig config = baseConfig();
    sim::RunBudget budget;
    const std::uint64_t base = core::runKeyHash(config, budget);

    // Event/sim-time/stall budgets change which result a run produces
    // (a tighter budget can fail a run that would have finished), so
    // they key the cache.
    budget.maxEvents = 1000;
    EXPECT_NE(base, core::runKeyHash(config, budget));

    budget = sim::RunBudget{};
    budget.stallDispatchLimit = 5000;
    EXPECT_NE(base, core::runKeyHash(config, budget));

    // The wall-clock deadline is host-dependent: it decides whether a
    // deterministic result is produced in time, never which result.
    // Keying it would split the cache across hosts for nothing.
    budget = sim::RunBudget{};
    budget.maxWallSeconds = 5.0;
    EXPECT_EQ(base, core::runKeyHash(config, budget));
}

TEST(CacheKey, HexKeyFormatsAndParsesRoundTrip)
{
    const std::uint64_t key = 0x0123456789abcdefull;
    const std::string hex = core::formatKeyHex(key);
    EXPECT_EQ(hex, "0123456789abcdef");
    std::uint64_t parsed = 0;
    ASSERT_TRUE(core::parseKeyHex(hex, parsed));
    EXPECT_EQ(parsed, key);
    EXPECT_FALSE(core::parseKeyHex("0123", parsed));
    EXPECT_FALSE(core::parseKeyHex("0123456789abcdeg", parsed));
    EXPECT_FALSE(core::parseKeyHex("0123456789abcdef0", parsed));
}

} // namespace
