/**
 * @file
 * Differential tests of sim::Calendar, the pending-event container both
 * event engines share, against a reference std::priority_queue ordered
 * by (tick, seq).
 *
 * The container is driven directly, with a test-owned clock that moves
 * the way an engine's does: to the tick of each popped node, forward
 * to a tick before the front (an in-place advance), or — with
 * causality checks off — backwards, to serve a past-dated node.  After
 * every operation the container's size and front tick must equal the
 * reference's, and every pop must return the reference's (tick, seq).
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/calendar.hh"
#include "sim/rng.hh"

namespace {

using absim::sim::Calendar;
using absim::sim::kTickMax;
using absim::sim::NodePool;
using absim::sim::Rng;
using absim::sim::Tick;

struct Node
{
    Tick when = 0;
    std::uint64_t seq = 0;
    Node *next = nullptr;
};

constexpr Tick kWindow = Calendar<Node>::kBuckets;

/** The calendar and the reference heap, fed the same operations. */
class Harness
{
  public:
    /** Push a node at @p when; returns its seq. */
    std::uint64_t
    push(Tick when)
    {
        Node *node = pool_.acquire();
        node->when = when;
        node->seq = nextSeq_++;
        cal_.push(node, now_);
        ref_.push({when, node->seq});
        check();
        return node->seq;
    }

    /** Pop the earliest node on both sides, move the clock to it and
     *  return its (tick, seq). */
    std::pair<Tick, std::uint64_t>
    pop()
    {
        Node *node = cal_.pop();
        const std::pair<Tick, std::uint64_t> got{node->when, node->seq};
        pool_.release(node);
        EXPECT_EQ(got, ref_.top()) << "popped out of (tick, seq) order";
        ref_.pop();
        now_ = got.first;
        check();
        return got;
    }

    /** Move the clock forward without a pop, as an in-place advance
     *  does: only to a tick strictly before the front. */
    void
    advanceTo(Tick when)
    {
        ASSERT_LT(when, cal_.frontTick());
        now_ = when;
    }

    Tick now() const { return now_; }
    const Calendar<Node> &calendar() const { return cal_; }
    bool empty() const { return ref_.empty(); }

  private:
    using Key = std::pair<Tick, std::uint64_t>;

    void
    check() const
    {
        ASSERT_EQ(cal_.size(), ref_.size());
        ASSERT_EQ(cal_.empty(), ref_.empty());
        ASSERT_EQ(cal_.frontTick(),
                  ref_.empty() ? kTickMax : ref_.top().first);
    }

    Calendar<Node> cal_;
    NodePool<Node> pool_;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
    std::uint64_t nextSeq_ = 0;
    Tick now_ = 0;
};

/** A near/far delta mix that keeps the clock moving. */
Tick
randomDelta(Rng &rng)
{
    const std::uint64_t shape = rng.below(100);
    if (shape < 30)
        return rng.below(4); // Same-tick ties.
    if (shape < 70)
        return rng.below(600);
    if (shape < 90)
        return kWindow - 8 + rng.below(16); // Straddles the window.
    return rng.below(40 * kWindow);         // Heap tier.
}

TEST(Calendar, StartsEmpty)
{
    Calendar<Node> cal;
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.size(), 0u);
    EXPECT_EQ(cal.frontTick(), kTickMax);
    EXPECT_EQ(cal.overflowed(), 0u);
}

TEST(Calendar, ClockSlidesAcrossHundredsOfWindowsInOrder)
{
    Harness h;
    Rng rng(0xCA1E);
    for (int i = 0; i < 64; ++i)
        h.push(rng.below(kWindow));
    std::uint64_t pops = 0;
    while (h.now() < 400 * kWindow && !h.empty()) {
        h.pop();
        ++pops;
        // About one child per pop keeps ~64 nodes pending.
        const std::uint64_t children = rng.below(3);
        for (std::uint64_t c = 0; c < children; ++c)
            h.push(h.now() + randomDelta(rng));
        if (h.empty())
            h.push(h.now() + randomDelta(rng));
        // Now and then an in-place advance moves the clock between pops.
        if (rng.below(8) == 0 && h.calendar().frontTick() > h.now() + 1)
            h.advanceTo(h.now() + rng.below(h.calendar().frontTick() -
                                            h.now()));
        if (HasFatalFailure())
            return;
    }
    EXPECT_GE(h.now(), 400 * kWindow);
    EXPECT_GT(pops, 10'000u);
    while (!h.empty())
        h.pop();
}

TEST(Calendar, WindowEdgesRouteByDistanceFromTheClock)
{
    Harness h;
    h.push(1000);
    h.pop(); // Clock at 1000, calendar empty.
    const std::size_t heap0 = h.calendar().overflowed();
    h.push(h.now() + kWindow - 1); // Last tick of the window: bucketed.
    EXPECT_EQ(h.calendar().overflowed(), heap0);
    h.push(h.now() + kWindow); // Same bucket index, next lap: heap.
    EXPECT_EQ(h.calendar().overflowed(), heap0 + 1);
    h.push(h.now() + kWindow + 1);
    EXPECT_EQ(h.calendar().overflowed(), heap0 + 2);
    h.push(h.now()); // The clock's own tick: bucketed.
    EXPECT_EQ(h.calendar().overflowed(), heap0 + 2);

    EXPECT_EQ(h.pop().first, 1000u);
    EXPECT_EQ(h.pop().first, 1000u + kWindow - 1);
    EXPECT_EQ(h.pop().first, 1000u + kWindow);
    EXPECT_EQ(h.pop().first, 1000u + kWindow + 1);
    EXPECT_TRUE(h.empty());
}

TEST(Calendar, WindowSlidesWithTheClockNotWithADrain)
{
    // A near event late in the window is bucketed as soon as the clock
    // has moved, even while the calendar never drains.
    Harness h;
    h.push(100);
    h.push(kWindow + 50); // Beyond [0, 4096): heap.
    EXPECT_EQ(h.calendar().overflowed(), 1u);
    h.pop(); // Clock at 100; the 4146 node is still pending.
    h.push(kWindow + 60); // Within [100, 4196): bucketed.
    EXPECT_EQ(h.calendar().overflowed(), 1u);
    h.advanceTo(kWindow);
    h.push(2 * kWindow - 1); // Within [4096, 8192): bucketed.
    EXPECT_EQ(h.calendar().overflowed(), 1u);
    EXPECT_EQ(h.pop().first, kWindow + 50);
    EXPECT_EQ(h.pop().first, kWindow + 60);
    EXPECT_EQ(h.pop().first, 2 * kWindow - 1);
}

TEST(Calendar, FarThenNearPushesOfOneTickStayFifo)
{
    // The seam the sliding window opens: tick T is first pushed while
    // it is far (heap), then, once the clock has come within a window
    // of it, pushed again (bucket).  The two tiers must interleave the
    // tick's nodes in seq order.
    constexpr Tick kT = 3 * kWindow;
    Harness h;
    const std::uint64_t a = h.push(kT);
    const std::uint64_t b = h.push(kT);
    h.push(kT - 100); // Brings the clock within a window of kT.
    EXPECT_EQ(h.calendar().overflowed(), 3u);
    h.pop();
    const std::uint64_t c = h.push(kT);
    const std::uint64_t d = h.push(kT);
    EXPECT_EQ(h.calendar().overflowed(), 2u);
    EXPECT_EQ(h.pop(), std::make_pair(kT, a));
    const std::uint64_t e = h.push(kT); // Clock at kT: bucketed.
    EXPECT_EQ(h.pop(), std::make_pair(kT, b));
    EXPECT_EQ(h.pop(), std::make_pair(kT, c));
    EXPECT_EQ(h.pop(), std::make_pair(kT, d));
    EXPECT_EQ(h.pop(), std::make_pair(kT, e));
    EXPECT_TRUE(h.empty());
}

TEST(Calendar, PastDatedPushesWithTheClockRunningBackwards)
{
    // With causality checks off, engines schedule behind the clock and
    // then run the clock back to serve those nodes.  Bucketed nodes
    // must keep their order although the clock is behind the window.
    Harness h;
    h.push(20'000);
    h.pop(); // Clock at 20000.
    h.push(20'001);             // Bucketed.
    h.push(20'000 + kWindow - 1); // Bucketed, last window tick.
    h.push(5);                  // Past: heap.
    h.push(5);
    h.pop(); // Clock runs back to 5.
    EXPECT_EQ(h.now(), 5u);
    // Relative to the clock this is near, but it lies behind the
    // window the bucketed nodes occupy: it must take the heap.
    const std::size_t heap = h.calendar().overflowed();
    h.push(10);
    EXPECT_EQ(h.calendar().overflowed(), heap + 1);
    h.push(20'002); // Inside the window: bucketed.
    EXPECT_EQ(h.calendar().overflowed(), heap + 1);
    while (!h.empty())
        h.pop();
}

TEST(Calendar, RandomPastAndFutureMixMatchesReference)
{
    Harness h;
    Rng rng(0xBAC4);
    for (int i = 0; i < 32; ++i)
        h.push(rng.below(2 * kWindow));
    for (int step = 0; step < 200'000 && !h.empty(); ++step) {
        h.pop();
        const std::uint64_t children = rng.below(3);
        for (std::uint64_t c = 0; c < children; ++c) {
            const std::uint64_t shape = rng.below(10);
            Tick when = h.now() + randomDelta(rng);
            if (shape == 0) // Behind the clock, by up to two windows.
                when = h.now() - std::min(h.now(), rng.below(2 * kWindow));
            h.push(when);
        }
        if (h.empty())
            h.push(h.now() + randomDelta(rng));
        if (HasFatalFailure())
            return;
    }
}

} // namespace
