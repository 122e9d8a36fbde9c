/**
 * @file
 * Unit tests for the set-associative Berkeley-state cache model and the
 * holder shadow its mutation points maintain.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"
#include "mem/holder_index.hh"

namespace {

using namespace absim::mem;

TEST(Cache, PaperGeometry)
{
    SetAssocCache cache; // 64 KB, 2-way, 32 B blocks.
    EXPECT_EQ(cache.ways(), 2u);
    EXPECT_EQ(cache.sets(), 1024u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(64 * 1024, 0), std::invalid_argument);
    // 4 lines are not divisible into 3 ways.
    EXPECT_THROW(SetAssocCache(128, 3), std::invalid_argument);
    // 6 lines / 2 ways = 3 sets: not a power of two.
    EXPECT_THROW(SetAssocCache(192, 2), std::invalid_argument);
}

TEST(Cache, MissOnCold)
{
    SetAssocCache cache;
    EXPECT_EQ(cache.stateOf(42), LineState::Invalid);
    EXPECT_FALSE(cache.hasReadable(42));
    EXPECT_FALSE(cache.hasWritable(42));
}

TEST(Cache, InstallMakesReadable)
{
    SetAssocCache cache;
    cache.install(42, LineState::Valid);
    EXPECT_EQ(cache.stateOf(42), LineState::Valid);
    EXPECT_TRUE(cache.hasReadable(42));
    EXPECT_FALSE(cache.hasWritable(42)); // Valid is not writable.
    cache.setState(42, LineState::Dirty);
    EXPECT_TRUE(cache.hasWritable(42));
}

TEST(Cache, StateHelpers)
{
    EXPECT_TRUE(isOwned(LineState::Dirty));
    EXPECT_TRUE(isOwned(LineState::SharedDirty));
    EXPECT_FALSE(isOwned(LineState::Valid));
    EXPECT_FALSE(isOwned(LineState::Invalid));
}

TEST(Cache, VictimForNeedsEvictionOnlyWhenSetFull)
{
    SetAssocCache cache(64, 2); // 2 lines, 1 set: everything conflicts.
    BlockId victim;
    LineState vstate;
    EXPECT_FALSE(cache.victimFor(1, victim, vstate));
    cache.install(1, LineState::Valid);
    EXPECT_FALSE(cache.victimFor(2, victim, vstate));
    cache.install(2, LineState::Dirty);
    EXPECT_TRUE(cache.victimFor(3, victim, vstate));
    EXPECT_EQ(victim, 1u); // LRU.
    EXPECT_EQ(vstate, LineState::Valid);
}

TEST(Cache, TouchChangesLruOrder)
{
    SetAssocCache cache(64, 2);
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid);
    cache.touch(1); // 2 becomes LRU.
    BlockId victim;
    LineState vstate;
    ASSERT_TRUE(cache.victimFor(3, victim, vstate));
    EXPECT_EQ(victim, 2u);
}

TEST(Cache, InstallEvictsLru)
{
    SetAssocCache cache(64, 2);
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid);
    cache.install(3, LineState::Valid);
    EXPECT_EQ(cache.stateOf(1), LineState::Invalid);
    EXPECT_EQ(cache.stateOf(2), LineState::Valid);
    EXPECT_EQ(cache.stateOf(3), LineState::Valid);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().dirtyEvictions, 0u);
}

TEST(Cache, DirtyEvictionCounted)
{
    SetAssocCache cache(64, 2);
    cache.install(1, LineState::Dirty);
    cache.install(2, LineState::SharedDirty);
    cache.install(3, LineState::Valid);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, ConflictOnlyWithinSet)
{
    SetAssocCache cache(128, 2); // 2 sets.
    // Blocks 0, 2, 4 map to set 0; block 1 to set 1.
    cache.install(0, LineState::Valid);
    cache.install(2, LineState::Valid);
    cache.install(1, LineState::Valid);
    cache.install(4, LineState::Valid); // Evicts from set 0 only.
    EXPECT_EQ(cache.stateOf(1), LineState::Valid);
    EXPECT_EQ(cache.stateOf(0), LineState::Invalid);
}

TEST(Cache, InvalidateIsIdempotentAndCounted)
{
    SetAssocCache cache;
    cache.install(7, LineState::Dirty);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_EQ(cache.stateOf(7), LineState::Invalid);
    EXPECT_FALSE(cache.invalidate(7)); // Already gone: silent no-op.
    EXPECT_EQ(cache.stats().invalidationsReceived, 1u);
}

TEST(Cache, TagsDisambiguateBlocksInSameSet)
{
    SetAssocCache cache(64, 2); // 1 set.
    cache.install(5, LineState::Valid);
    EXPECT_EQ(cache.stateOf(5 + 1024), LineState::Invalid);
}

TEST(Cache, MissesCounted)
{
    SetAssocCache cache;
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Valid);
    EXPECT_EQ(cache.stats().misses, 2u);
}

/** Parameterized sweep: a working set within capacity never evicts. */
class CacheCapacity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheCapacity, WorkingSetWithinCapacityStaysResident)
{
    const std::uint32_t blocks = GetParam();
    SetAssocCache cache; // 2048 lines.
    // Sequential blocks spread evenly over sets: no conflicts below
    // capacity.
    for (std::uint32_t b = 0; b < blocks; ++b)
        cache.install(b, LineState::Valid);
    for (std::uint32_t b = 0; b < blocks; ++b)
        EXPECT_EQ(cache.stateOf(b), LineState::Valid);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheCapacity,
                         ::testing::Values(1u, 64u, 1024u, 2048u));

// -------------------------------------------------------- Holder shadow

TEST(HolderIndex, FillTracksEveryHolder)
{
    HolderIndex index;
    SetAssocCache a(64, 2), b(64, 2);
    a.attachHolders(&index, 0);
    b.attachHolders(&index, 5);
    a.install(1, LineState::Valid);
    b.install(1, LineState::Valid);
    a.install(2, LineState::Dirty);
    EXPECT_EQ(index.holders(1), 0b100001u);
    EXPECT_EQ(index.holders(2), 0b1u);
    EXPECT_EQ(index.holders(3), 0u);
    EXPECT_EQ(index.size(), 2u);
}

TEST(HolderIndex, EvictOnInstallMovesTheVictimsBit)
{
    HolderIndex index;
    SetAssocCache cache(64, 2); // 1 set, 2 ways.
    cache.attachHolders(&index, 3);
    cache.install(1, LineState::Valid);
    cache.install(2, LineState::Dirty);
    cache.install(4, LineState::Valid); // Silently replaces LRU block 1.
    EXPECT_EQ(index.holders(1), 0u);
    EXPECT_EQ(index.holders(2), 0b1000u);
    EXPECT_EQ(index.holders(4), 0b1000u);
    EXPECT_EQ(index.size(), 2u);
}

TEST(HolderIndex, InvalidateOfAbsentBlockIsANoOp)
{
    HolderIndex index;
    SetAssocCache a, b;
    a.attachHolders(&index, 0);
    b.attachHolders(&index, 1);
    b.install(7, LineState::Valid);
    EXPECT_FALSE(a.invalidate(7)); // Node 0 never held it.
    EXPECT_EQ(index.holders(7), 0b10u);
    EXPECT_EQ(index.size(), 1u);
}

TEST(HolderIndex, SetStateInvalidDropsAndLastDropErases)
{
    HolderIndex index;
    SetAssocCache a, b;
    a.attachHolders(&index, 0);
    b.attachHolders(&index, 1);
    a.install(9, LineState::Valid);
    b.install(9, LineState::Valid);
    a.setState(9, LineState::SharedDirty); // Still held: no change.
    EXPECT_EQ(index.holders(9), 0b11u);
    a.setState(9, LineState::Invalid);
    EXPECT_EQ(index.holders(9), 0b10u);
    EXPECT_EQ(index.size(), 1u);
    EXPECT_TRUE(b.invalidate(9));
    EXPECT_EQ(index.holders(9), 0u);
    EXPECT_EQ(index.size(), 0u);
}

TEST(HolderIndex, UnattachedCacheKeepsNoShadow)
{
    HolderIndex index;
    SetAssocCache cache;
    cache.install(1, LineState::Valid);
    EXPECT_EQ(index.size(), 0u);
}

TEST(HolderIndex, CollidingKeysSurviveDeletionFromTheMiddle)
{
    HolderIndex index;
    // Three keys sharing one home slot form a probe chain; a fourth key
    // homed on the next slot is displaced behind them.
    std::vector<BlockId> same;
    BlockId next = 0;
    for (BlockId b = 1; same.size() < 3; ++b)
        if (index.homeSlot(b) == index.homeSlot(1))
            same.push_back(b);
    const std::size_t after = (index.homeSlot(1) + 1) % index.capacity();
    for (BlockId b = 1;; ++b)
        if (index.homeSlot(b) == after) {
            next = b;
            break;
        }
    index.add(same[0], 0);
    index.add(same[1], 1);
    index.add(same[2], 2);
    index.add(next, 3);

    index.remove(same[1], 1); // The middle of the chain.
    EXPECT_EQ(index.holders(same[1]), 0u);
    EXPECT_EQ(index.holders(same[0]), 0b1u);
    EXPECT_EQ(index.holders(same[2]), 0b100u);
    EXPECT_EQ(index.holders(next), 0b1000u);

    index.remove(same[0], 0); // The head.
    EXPECT_EQ(index.holders(same[2]), 0b100u);
    EXPECT_EQ(index.holders(next), 0b1000u);
    EXPECT_EQ(index.size(), 2u);

    index.remove(same[0], 0); // Already gone: no-op.
    EXPECT_EQ(index.size(), 2u);
}

TEST(HolderIndex, GrowsPastItsInitialCapacity)
{
    HolderIndex index;
    const std::size_t initial = index.capacity();
    const BlockId blocks = 20 * initial;
    for (BlockId b = 0; b < blocks; ++b)
        index.add(b * 3, static_cast<absim::net::NodeId>(b % 64));
    EXPECT_GT(index.capacity(), initial);
    EXPECT_EQ(index.size(), blocks);
    for (BlockId b = 0; b < blocks; ++b)
        ASSERT_EQ(index.holders(b * 3), std::uint64_t{1} << (b % 64))
            << "block " << b * 3;
    for (BlockId b = 0; b < blocks; b += 2)
        index.remove(b * 3, static_cast<absim::net::NodeId>(b % 64));
    EXPECT_EQ(index.size(), blocks / 2);
    for (BlockId b = 1; b < blocks; b += 2)
        ASSERT_EQ(index.holders(b * 3), std::uint64_t{1} << (b % 64));
}

} // namespace
