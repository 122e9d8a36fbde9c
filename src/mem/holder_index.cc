#include "mem/holder_index.hh"

namespace absim::mem {

namespace {

constexpr std::size_t kInitialSlots = 64;
constexpr unsigned kInitialShift = 64 - 6; // log2(kInitialSlots) == 6.

} // namespace

HolderIndex::HolderIndex()
    : slots_(kInitialSlots), mask_(kInitialSlots - 1),
      shift_(kInitialShift)
{
}

void
HolderIndex::remove(BlockId blk, net::NodeId n)
{
    std::size_t i = homeSlot(blk);
    for (; slots_[i].blk != blk; i = (i + 1) & mask_)
        if (slots_[i].holders == 0)
            return; // Not held anywhere.
    if (slots_[i].holders == 0)
        return;
    slots_[i].holders &= ~(std::uint64_t{1} << n);
    if (slots_[i].holders != 0)
        return;

    // Last holder dropped: erase, then shift the rest of the probe
    // chain back so every remaining key stays reachable from its home.
    --size_;
    for (std::size_t j = (i + 1) & mask_; slots_[j].holders != 0;
         j = (j + 1) & mask_) {
        const std::size_t home = homeSlot(slots_[j].blk);
        // Slot j may move into the hole at i unless its home lies
        // cyclically in (i, j].
        if (((j - home) & mask_) >= ((j - i) & mask_)) {
            slots_[i] = slots_[j];
            slots_[j].holders = 0;
            i = j;
        }
    }
}

void
HolderIndex::grow()
{
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Slot &s : old) {
        if (s.holders == 0)
            continue;
        std::size_t i = homeSlot(s.blk);
        while (slots_[i].holders != 0)
            i = (i + 1) & mask_;
        slots_[i] = s;
    }
}

} // namespace absim::mem
