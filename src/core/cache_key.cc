#include "core/cache_key.hh"

#include "core/journal.hh"
#include "machines/registry.hh"
#include "trace_replay/format.hh"

namespace absim::core {

namespace {

const char *
gapPolicyName(logp::GapPolicy policy)
{
    switch (policy) {
      case logp::GapPolicy::Single:
        return "single";
      case logp::GapPolicy::PerDirection:
        return "per-direction";
      case logp::GapPolicy::BisectionOnly:
        return "bisection";
    }
    return "?";
}

} // namespace

std::string
canonicalRunKey(const RunConfig &config, const sim::RunBudget &budget)
{
    // Fixed field order; every value spelled canonically (registry
    // *name* for the machine, so "logpc" and "logp+c" collapse).  The
    // jsonEscape guards the free-form variant string against embedding
    // a field separator.
    std::string key;
    key.reserve(192);
    key += "app=" + jsonEscape(config.app);
    key += ";n=" + std::to_string(config.params.n);
    key += ";seed=" + std::to_string(config.params.seed);
    key += ";iterations=" + std::to_string(config.params.iterations);
    key += ";variant=" + jsonEscape(config.params.variant);
    key += ";machine=";
    key += mach::specFor(config.machine).name;
    key += ";topology=" + net::toString(config.topology);
    key += ";procs=" + std::to_string(config.procs);
    key += ";gap=";
    key += gapPolicyName(config.gapPolicy);
    key += ";cache_bytes=" + std::to_string(config.cache.bytes);
    key += ";cache_ways=" + std::to_string(config.cache.ways);
    key += ";protocol=" + mach::toString(config.protocol);
    key += ";check=";
    key += config.checkResult ? "1" : "0";
    // Deterministic budget fields only — maxWallSeconds excluded (see
    // the header): a wall deadline decides *whether* the result gets
    // computed, never *what* it is.
    key += ";max_events=" + std::to_string(budget.maxEvents);
    key += ";max_sim_time=" + std::to_string(budget.maxSimTime);
    key += ";stall_limit=" + std::to_string(budget.stallDispatchLimit);
    return key;
}

std::uint64_t
runKeyHash(const RunConfig &config, const sim::RunBudget &budget)
{
    return trace::fnv1a64(canonicalRunKey(config, budget));
}

std::string
formatKeyHex(std::uint64_t key)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[key & 0xf];
        key >>= 4;
    }
    return out;
}

bool
parseKeyHex(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    out = value;
    return true;
}

} // namespace absim::core
