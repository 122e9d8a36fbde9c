/**
 * @file
 * Holder shadow: which caches hold each block.
 *
 * A HolderIndex maps a block to the bit mask of nodes whose cache holds
 * it in any valid state.  The caches of one memory model report every
 * residency change to the model's index (SetAssocCache::attachHolders),
 * so the index is exactly as truthful as the caches themselves.  The
 * coherence checker reads it to visit only a block's holders instead of
 * probing all P caches per protocol transition.
 *
 * Layout: a flat open-addressed table (linear probing, Fibonacci hash)
 * that starts small, doubles when three quarters full, and erases a
 * block when its last holder drops, so its footprint follows the
 * resident working set rather than P x cache lines.  An empty slot is
 * one whose mask is 0; deletion shifts the rest of the probe chain
 * back, so no tombstones accumulate.
 */

#ifndef ABSIM_MEM_HOLDER_INDEX_HH
#define ABSIM_MEM_HOLDER_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"

namespace absim::mem {

class HolderIndex
{
  public:
    HolderIndex();

    /** Mask of nodes holding @p blk; 0 if no cache holds it. */
    std::uint64_t
    holders(BlockId blk) const
    {
        for (std::size_t i = homeSlot(blk);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.holders == 0 || s.blk == blk)
                return s.holders;
        }
    }

    /** Node @p n now holds @p blk. */
    void
    add(BlockId blk, net::NodeId n)
    {
        if (4 * (size_ + 1) > 3 * slots_.size())
            grow();
        std::size_t i = homeSlot(blk);
        while (slots_[i].holders != 0 && slots_[i].blk != blk)
            i = (i + 1) & mask_;
        if (slots_[i].holders == 0) {
            slots_[i].blk = blk;
            ++size_;
        }
        slots_[i].holders |= std::uint64_t{1} << n;
    }

    /** Node @p n no longer holds @p blk (no-op if it did not). */
    void remove(BlockId blk, net::NodeId n);

    /** Blocks held by at least one cache. */
    std::size_t size() const { return size_; }

    /** Slots allocated (grows by doubling; never shrinks). */
    std::size_t capacity() const { return slots_.size(); }

    /** The slot a probe for @p blk starts from at the current capacity
     *  (lets tests construct colliding keys). */
    std::size_t
    homeSlot(BlockId blk) const
    {
        return static_cast<std::size_t>((blk * 0x9E3779B97F4A7C15ull) >>
                                        shift_);
    }

    /** Visit every (block, holders) pair; order is unspecified. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.holders != 0)
                fn(s.blk, s.holders);
    }

  private:
    struct Slot
    {
        BlockId blk = 0;
        std::uint64_t holders = 0; ///< 0 = empty slot.
    };

    void grow();

    std::vector<Slot> slots_; // Power-of-two length.
    std::size_t mask_ = 0;    // slots_.size() - 1.
    unsigned shift_ = 0;      // 64 - log2(slots_.size()).
    std::size_t size_ = 0;
};

} // namespace absim::mem

#endif // ABSIM_MEM_HOLDER_INDEX_HH
