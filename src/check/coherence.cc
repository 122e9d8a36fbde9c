#include "check/coherence.hh"

#include <bit>
#include <set>
#include <utility>

#include "check/check.hh"

namespace absim::check {

namespace {

/** Lowest node in a non-empty node mask (failure messages). */
net::NodeId
lowestNode(std::uint64_t mask)
{
    return static_cast<net::NodeId>(std::countr_zero(mask));
}

} // namespace

CoherenceChecker::CoherenceChecker(
    std::string name, bool exact_sharers,
    const std::vector<std::unique_ptr<mem::SetAssocCache>> &caches,
    const mem::HolderIndex &holders, Lookup lookup, Enumerate enumerate)
    : name_(std::move(name)), exactSharers_(exact_sharers),
      caches_(caches), holders_(holders), lookup_(std::move(lookup)),
      enumerate_(std::move(enumerate))
{
}

void
CoherenceChecker::checkBlock(mem::BlockId blk, const DirInfo &dir) const
{
    if (!options().coherence)
        return;
    verify(blk, dir, holders_.holders(blk));
}

void
CoherenceChecker::verify(mem::BlockId blk, const DirInfo &dir,
                         std::uint64_t holders) const
{
    ++blocksChecked_;

    if (holders != 0) {
        ABSIM_CHECK(dir.tracked, name_ << ": node " << lowestNode(holders)
                                       << " holds block " << blk
                                       << " unknown to the directory");
        const std::uint64_t unregistered = holders & ~dir.sharers;
        ABSIM_CHECK(unregistered == 0,
                    name_ << ": node " << lowestNode(unregistered)
                          << " holds block " << blk
                          << " without a sharer bit (sharers=0x"
                          << std::hex << dir.sharers << std::dec << ")");
    }
    if (exactSharers_ && dir.tracked) {
        const std::uint64_t stale = dir.sharers & ~holders;
        ABSIM_CHECK(stale == 0,
                    name_ << ": stale sharer bit, node " << lowestNode(stale)
                          << " listed for block " << blk
                          << " but holds no copy");
    }

    const auto copies = static_cast<std::uint32_t>(std::popcount(holders));
    std::uint32_t owned_copies = 0;
    std::int32_t owned_node = -1;
    bool dirty = false;
    for (std::uint64_t rest = holders; rest != 0; rest &= rest - 1) {
        const net::NodeId n = lowestNode(rest);
        const mem::LineState state = caches_[n]->stateOf(blk);
        ABSIM_CHECK(state != mem::LineState::Invalid,
                    name_ << ": holder shadow lists node " << n
                          << " for block " << blk
                          << " but its cache holds no copy");
        if (mem::isOwned(state)) {
            ++owned_copies;
            owned_node = static_cast<std::int32_t>(n);
        }
        if (state == mem::LineState::Dirty)
            dirty = true;
    }

    ABSIM_CHECK(owned_copies <= 1,
                name_ << ": SWMR violated, " << owned_copies
                      << " ownership-state copies of block " << blk);
    if (dirty)
        ABSIM_CHECK(copies == 1,
                    name_ << ": Dirty copy of block " << blk
                          << " coexists with " << copies - 1
                          << " other copies");
    if (owned_copies == 1)
        ABSIM_CHECK(dir.owner == owned_node,
                    name_ << ": node " << owned_node
                          << " owns block " << blk
                          << " but the directory names owner "
                          << dir.owner);
    if (dir.tracked && dir.owner >= 0)
        ABSIM_CHECK(owned_copies == 1 && owned_node == dir.owner,
                    name_ << ": directory owner " << dir.owner
                          << " holds no ownership-state copy of block "
                          << blk);
}

void
CoherenceChecker::checkAll() const
{
    if (!options().coherence)
        return;

    // Every tracked or shadowed block once, in ascending order, so the
    // first violation reported never depends on hash-table layout.
    std::set<mem::BlockId> blocks;
    if (enumerate_)
        enumerate_([&blocks](mem::BlockId blk) { blocks.insert(blk); });
    holders_.forEach([&blocks](mem::BlockId blk, std::uint64_t) {
        blocks.insert(blk);
    });

    for (const mem::BlockId blk : blocks) {
        std::uint64_t scan = 0;
        for (std::size_t n = 0; n < caches_.size(); ++n)
            if (caches_[n]->stateOf(blk) != mem::LineState::Invalid)
                scan |= std::uint64_t{1} << n;
        const std::uint64_t shadow = holders_.holders(blk);
        ABSIM_CHECK(shadow == scan,
                    name_ << ": holder shadow drift on block " << blk
                          << ": shadow lists 0x" << std::hex << shadow
                          << " but the caches hold 0x" << scan << std::dec);
        verify(blk, lookup_(blk), scan);
    }

    // The scan above covered every block the directory or the shadow
    // knows; a copy of any other block is drift the shadow missed.
    for (std::size_t n = 0; n < caches_.size(); ++n)
        for (const auto &[blk, state] : caches_[n]->residentLines()) {
            (void)state;
            ABSIM_CHECK((holders_.holders(blk) >> n) & 1u,
                        name_ << ": holder shadow drift on block " << blk
                              << ": node " << n
                              << " holds a copy the shadow does not list");
        }
}

} // namespace absim::check
