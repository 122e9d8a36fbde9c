#include "machines/ideal_mem.hh"

#include <bit>
#include <utility>

#include "check/check.hh"

namespace absim::mach {

using mem::BlockId;
using mem::LineState;
using net::NodeId;

namespace {

/** The checker's view of an oracle entry. */
check::DirInfo
dirInfo(const IdealCacheMem::OracleEntry &entry)
{
    return {entry.sharers, entry.owner, /*tracked=*/true};
}

} // namespace

IdealCacheMem::IdealCacheMem(NetModel &net, std::uint32_t nodes,
                             const mem::HomeMap &homes, MachineStats &stats,
                             const CacheConfig &cache_config,
                             std::string checker_name)
    : MemModel(net, nodes, homes, stats),
      checker_(std::move(checker_name), /*exact_sharers=*/true, caches_,
               holders_,
               [this](BlockId blk) {
                   const auto it = oracle_.find(blk);
                   return it == oracle_.end() ? check::DirInfo{}
                                              : dirInfo(it->second);
               },
               [this](const std::function<void(BlockId)> &fn) {
                   for (const auto &kv : oracle_)
                       fn(kv.first);
               })
{
    ABSIM_CHECK(nodes <= mem::kMaxNodes,
                nodes << " nodes exceed the " << mem::kMaxNodes
                      << "-node sharer masks");
    caches_.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
        caches_.push_back(std::make_unique<mem::SetAssocCache>(
            cache_config.bytes, cache_config.ways));
        caches_.back()->attachHolders(&holders_, i);
    }
}

void
IdealCacheMem::makeRoom(NodeId node, BlockId blk)
{
    BlockId victim;
    LineState vstate;
    if (!caches_[node]->victimFor(blk, victim, vstate))
        return;
    OracleEntry &entry = entryOf(victim);
    entry.sharers &= ~(std::uint64_t{1} << node);
    if (entry.owner == static_cast<std::int32_t>(node))
        entry.owner = -1; // Writeback is free: data teleports home.
    caches_[node]->setState(victim, LineState::Invalid);
    checker_.checkBlock(victim, dirInfo(entry));
}

void
IdealCacheMem::invalidateOthers(NodeId node, BlockId blk,
                                OracleEntry &entry)
{
    for (std::uint64_t others = entry.sharers & ~(std::uint64_t{1} << node);
         others != 0; others &= others - 1) {
        caches_[static_cast<NodeId>(std::countr_zero(others))]->invalidate(
            blk);
        ++stats_.invalidations; // Counted, but free.
    }
    entry.sharers = std::uint64_t{1} << node;
    entry.owner = static_cast<std::int32_t>(node);
}

AccessTiming
IdealCacheMem::access(MemClient &client, mem::Addr addr, AccessType type,
                      std::uint32_t bytes)
{
    (void)bytes;
    ++stats_.accesses;
    const NodeId node = client.node();
    const BlockId blk = mem::blockOf(addr);
    mem::SetAssocCache &cache = *caches_[node];
    const LineState state = cache.stateOf(blk);
    const bool is_read = (type == AccessType::Read);

    AccessTiming t;
    if (is_read ? state != LineState::Invalid : state == LineState::Dirty) {
        cache.touch(blk);
        ++cache.stats().hits;
        ++stats_.cacheHits;
        t.busy = kCacheHitNs;
        return t;
    }

    if (!is_read && state != LineState::Invalid) {
        // Upgrade: the paper's canonical example — the block is valid in
        // several caches and one processor writes.  The directory memory
        // system sends invalidations; here the state flips are free and
        // there is no network access at all.
        ++stats_.upgrades;
        ++cache.stats().upgrades;
        OracleEntry &entry = entryOf(blk);
        invalidateOthers(node, blk, entry);
        cache.setState(blk, LineState::Dirty);
        cache.touch(blk);
        checker_.checkBlock(blk, dirInfo(entry));
        t.busy = kCacheHitNs;
        return t;
    }

    // True miss: find where the data lives.
    if (is_read)
        ++stats_.readMisses;
    else
        ++stats_.writeMisses;
    makeRoom(node, blk);

    OracleEntry &entry = entryOf(blk);
    const NodeId home = homes_.homeOf(addr);
    NodeId source = home;
    if (entry.owner >= 0 &&
        entry.owner != static_cast<std::int32_t>(node)) {
        // A remote cache owns the only up-to-date copy: fetching it is
        // true communication and is charged even in the ideal model.
        source = static_cast<NodeId>(entry.owner);
    }

    if (source != node) {
        client.syncToEngine();
        t.networked = true;
        ++stats_.networkAccesses;
        const NetTiming rt = net_.roundTrip(node, source, kDataBytes);
        stats_.messages += rt.messages;
        t.latency = rt.latency;
        t.contention = rt.contention;
    } else {
        ++stats_.localMem;
        t.busy += kLocalMemNs;
    }

    if (is_read) {
        if (entry.owner >= 0 &&
            entry.owner != static_cast<std::int32_t>(node)) {
            // Berkeley transition: the supplying owner keeps ownership in
            // SharedDirty (free state change).
            caches_[static_cast<NodeId>(entry.owner)]->setState(
                blk, LineState::SharedDirty);
        }
        entry.sharers |= std::uint64_t{1} << node;
        cache.install(blk, LineState::Valid);
    } else {
        invalidateOthers(node, blk, entry);
        cache.install(blk, LineState::Dirty);
    }

    checker_.checkBlock(blk, dirInfo(entry));
    t.busy += kCacheHitNs;
    return t;
}

} // namespace absim::mach
