#include "machines/directory_mem.hh"

#include <array>
#include <bit>
#include <span>
#include <utility>

#include "check/check.hh"
#include "sim/trace.hh"

namespace absim::mach {

using mem::BlockId;
using mem::LineState;
using net::NodeId;

namespace {

/** The checker's view of a directory entry. */
check::DirInfo
dirInfo(const mem::DirectoryEntry &entry)
{
    return {entry.sharers, entry.owner, /*tracked=*/true};
}

} // namespace

DirectoryMem::DirectoryMem(sim::EventQueue &eq, NetModel &net,
                           std::uint32_t nodes, const mem::HomeMap &homes,
                           MachineStats &stats,
                           const CacheConfig &cache_config,
                           ProtocolKind protocol, std::string checker_name)
    : MemModel(net, nodes, homes, stats), eq_(eq), protocol_(protocol),
      checker_(std::move(checker_name), /*exact_sharers=*/false, caches_,
               holders_,
               [this](BlockId blk) {
                   const mem::DirectoryEntry *e = dir_.peek(blk);
                   return e ? dirInfo(*e) : check::DirInfo{};
               },
               [this](const std::function<void(BlockId)> &fn) {
                   dir_.forEach(
                       [&fn](BlockId blk, const mem::DirectoryEntry &) {
                           fn(blk);
                       });
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
DirectoryMem::hop(NodeId src, NodeId dst, std::uint32_t bytes,
                  AccessTiming &t)
{
    if (src == dst) {
        // Stays inside the node.  Only the data transfer costs local
        // memory time; control hops (request/grant) to the co-located
        // directory are free, keeping the node-local miss cost identical
        // to the uncached/ideal memory models' kLocalMemNs.
        if (bytes == kDataBytes)
            t.busy += kLocalMemNs;
        return;
    }
    const NetTiming r = net_.transfer(src, dst, bytes);
    t.latency += r.latency;
    t.contention += r.contention;
    stats_.messages += r.messages;
}

AccessTiming
DirectoryMem::access(MemClient &client, mem::Addr addr, AccessType type,
                     std::uint32_t bytes)
{
    (void)bytes; // All app accesses fit in one block; asserted by runtime.
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

    // Miss or upgrade: the transaction runs in engine time.
    client.syncToEngine();
    const std::uint64_t messages_before = stats_.messages;

    if (state == LineState::Invalid)
        makeRoom(node, blk, t);

    const mem::DirectoryEntry &entry =
        is_read ? readMiss(node, blk, t)
                : writeMiss(node, blk, state != LineState::Invalid, t);

    if (stats_.messages != messages_before) {
        t.networked = true;
        ++stats_.networkAccesses;
    } else {
        ++stats_.localMem; // Fully node-local transaction.
    }

    // The transaction just committed; its block must satisfy SWMR and
    // agree with the directory at this quiescent point.
    checker_.checkBlock(blk, dirInfo(entry));

    // The access completes out of the (now valid) cache line.
    t.busy += kCacheHitNs;
    return t;
}

void
DirectoryMem::makeRoom(NodeId node, BlockId blk, AccessTiming &t)
{
    BlockId victim;
    LineState vstate;
    if (!caches_[node]->victimFor(blk, victim, vstate))
        return;
    if (mem::isOwned(vstate))
        checker_.checkBlock(victim,
                            dirInfo(writeback(node, victim, vstate, t)));
    // Clean (Valid) victims are replaced silently: the directory keeps a
    // stale sharer bit, which at worst causes a harmless spurious
    // invalidation later — exactly like real full-map directories.
}

const mem::DirectoryEntry &
DirectoryMem::writeback(NodeId node, BlockId victim, LineState state,
                        AccessTiming &t)
{
    (void)state;
    mem::DirectoryEntry &entry = dir_.entry(victim);
    t.contention += entry.lock.acquire();

    // While we waited for the lock, another node's write transaction may
    // have stolen ownership and invalidated our line; then there is
    // nothing left to write back.
    if (!mem::isOwned(caches_[node]->stateOf(victim))) {
        entry.lock.release();
        return entry;
    }

    ++stats_.writebacks;
    const NodeId home = homes_.homeOf(mem::blockBase(victim));
    ABSIM_TRACE(eq_, Protocol, "writeback node=" << node
                                   << " blk=" << victim
                                   << " home=" << home);
    hop(node, home, kDataBytes, t);
    if (entry.owner == static_cast<std::int32_t>(node))
        entry.owner = mem::DirectoryEntry::kNoOwner;
    entry.removeSharer(node);
    caches_[node]->setState(victim, LineState::Invalid);
    entry.lock.release();
    return entry;
}

const mem::DirectoryEntry &
DirectoryMem::readMiss(NodeId node, BlockId blk, AccessTiming &t)
{
    ++stats_.readMisses;
    const NodeId home = homes_.homeOf(mem::blockBase(blk));
    mem::DirectoryEntry &entry = dir_.entry(blk);
    t.contention += entry.lock.acquire();
    ABSIM_TRACE(eq_, Protocol, "read miss node=" << node << " blk=" << blk
                                   << " home=" << home
                                   << " owner=" << entry.owner);

    hop(node, home, kCtrlBytes, t); // Request to the home/directory.

    ABSIM_CHECK(entry.owner != static_cast<std::int32_t>(node),
                "node " << node << " read-missed block " << blk
                        << " that it already owns");
    if (entry.owner != mem::DirectoryEntry::kNoOwner) {
        const auto owner = static_cast<NodeId>(entry.owner);
        if (protocol_ == ProtocolKind::Berkeley) {
            // Berkeley: the owner supplies the block cache-to-cache and
            // keeps ownership, degrading to SharedDirty; memory stays
            // stale.
            hop(home, owner, kCtrlBytes, t); // Forwarded request.
            hop(owner, node, kDataBytes, t); // Owner-supplied data.
            caches_[owner]->setState(blk, LineState::SharedDirty);
        } else {
            // MSI: the owner writes back to the home, which then
            // supplies the data; the ex-owner keeps a clean copy.
            hop(home, owner, kCtrlBytes, t); // Recall.
            hop(owner, home, kDataBytes, t); // Writeback to memory.
            hop(home, node, kDataBytes, t);  // Memory-supplied data.
            caches_[owner]->setState(blk, LineState::Valid);
            entry.owner = mem::DirectoryEntry::kNoOwner;
        }
    } else {
        hop(home, node, kDataBytes, t); // Memory-supplied data.
    }

    entry.addSharer(node);
    caches_[node]->install(blk, LineState::Valid);
    entry.lock.release();
    return entry;
}

const mem::DirectoryEntry &
DirectoryMem::writeMiss(NodeId node, BlockId blk, bool have_line,
                        AccessTiming &t)
{
    const NodeId home = homes_.homeOf(mem::blockBase(blk));
    mem::DirectoryEntry &entry = dir_.entry(blk);
    t.contention += entry.lock.acquire();
    ABSIM_TRACE(eq_, Protocol, (have_line ? "upgrade" : "write miss")
                                   << " node=" << node << " blk=" << blk
                                   << " sharers=" << entry.sharers);

    // The upgrade may have been invalidated while waiting for the lock;
    // the transaction then degenerates into a plain write miss.
    if (have_line &&
        caches_[node]->stateOf(blk) == LineState::Invalid)
        have_line = false;

    if (have_line)
        ++stats_.upgrades;
    else
        ++stats_.writeMisses;

    hop(node, home, kCtrlBytes, t); // Request to the home/directory.

    if (!have_line) {
        if (entry.owner != mem::DirectoryEntry::kNoOwner &&
            entry.owner != static_cast<std::int32_t>(node)) {
            const auto owner = static_cast<NodeId>(entry.owner);
            if (protocol_ == ProtocolKind::Berkeley) {
                // Ownership transfer: the current owner supplies the
                // data directly and invalidates its copy.
                hop(home, owner, kCtrlBytes, t);
                hop(owner, node, kDataBytes, t);
            } else {
                // MSI: recall through memory.
                hop(home, owner, kCtrlBytes, t);
                hop(owner, home, kDataBytes, t);
                hop(home, node, kDataBytes, t);
            }
            caches_[owner]->invalidate(blk);
            entry.removeSharer(owner);
            entry.owner = mem::DirectoryEntry::kNoOwner;
        } else {
            hop(home, node, kDataBytes, t);
        }
    }

    invalidateSharers(node, blk, entry, t);

    // Ack collection at the home and exclusive grant to the requester.
    hop(home, node, kCtrlBytes, t);

    entry.sharers = 0;
    entry.addSharer(node);
    entry.owner = static_cast<std::int32_t>(node);
    if (have_line)
        caches_[node]->setState(blk, LineState::Dirty);
    else
        caches_[node]->install(blk, LineState::Dirty);
    entry.lock.release();
    return entry;
}

void
DirectoryMem::invalidateSharers(NodeId node, BlockId blk,
                                mem::DirectoryEntry &entry, AccessTiming &t)
{
    const NodeId home = homes_.homeOf(mem::blockBase(blk));

    // Apply the state flips immediately: the home lock is held, so this is
    // the transaction's serialization point.  The network traffic below
    // contributes timing only.  Targets go in ascending node order.  The
    // buffer lives on this transaction's own stack because the fan-out
    // yields, and another transaction on this model may run meanwhile.
    std::array<NodeId, mem::kMaxNodes> remote;
    std::size_t remote_count = 0;
    for (std::uint64_t others = entry.sharers & ~(std::uint64_t{1} << node);
         others != 0; others &= others - 1) {
        const auto s = static_cast<NodeId>(std::countr_zero(others));
        caches_[s]->invalidate(blk);
        ++stats_.invalidations;
        if (s != home)
            remote[remote_count++] = s;
        // An invalidation for the home node itself costs no network
        // traffic (directory and cache are co-located).
    }
    entry.sharers = 0;

    if (remote_count == 0)
        return;

    // Parallel invalidation/ack round trips from the home; the requester
    // waits for the slowest.  The NetModel partitions the elapsed wait
    // into critical latency and contention.
    const NetTiming r = net_.fanOutRoundTrips(
        home, std::span<const NodeId>(remote.data(), remote_count));
    stats_.messages += r.messages;
    t.latency += r.latency;
    t.contention += r.contention;
}

bool
DirectoryMem::corruptStateForFault(std::uint64_t seed)
{
    // Deterministically pick a resident line (the seed rotates the
    // starting node and indexes into its lines) and flip its state
    // without updating the directory — exactly the inconsistency a
    // buggy protocol transition would leave behind.
    for (std::uint32_t i = 0; i < nodes_; ++i) {
        const NodeId n = static_cast<NodeId>((seed + i) % nodes_);
        const auto lines = caches_[n]->residentLines();
        if (lines.empty())
            continue;
        const auto [blk, state] = lines[seed % lines.size()];
        caches_[n]->setState(blk, state == LineState::Valid
                                      ? LineState::Dirty
                                      : LineState::Valid);
        // The corrupted transition must be caught right here, the same
        // way every real transition is checked at its boundary.
        const mem::DirectoryEntry *entry = dir_.peek(blk);
        checker_.checkBlock(blk, entry ? dirInfo(*entry) : check::DirInfo{});
        return true;
    }
    return false;
}

} // namespace absim::mach
