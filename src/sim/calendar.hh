/**
 * @file
 * The event kernel's pending-event container: a sliding-window calendar
 * queue over intrusive nodes, shared by sim::EventQueue and the trace
 * replay engine.
 *
 * A node type carries three fields the container owns while the node is
 * pending — `Tick when`, `std::uint64_t seq` and `Node *next` — and
 * anything else its engine needs (a callable, a coroutine handle).
 * Nodes leave in (when, seq) order.
 *
 * Two tiers:
 *
 *  - kBuckets circular one-tick buckets under a two-level occupancy
 *    bitmap.  A node is bucketed iff base <= when < base + kBuckets,
 *    where base is the caller's clock at push (its high-water mark, if
 *    the clock ever runs backwards to serve a past-dated event).  The
 *    window therefore slides with the clock, and every bucketed node
 *    lies in [base, base + kBuckets): distinct ticks map to distinct
 *    buckets, each bucket's FIFO list *is* (tick, seq) order, and
 *    circular order from the earliest bucket is tick order.
 *  - A (when, seq) min-heap for everything else: far-future nodes, and
 *    nodes behind the clock (legal with causality checks off).  A heap
 *    node is popped straight off the heap once it is the earliest;
 *    nothing is ever moved between tiers.
 *
 * The front is cached: the earliest bucket's head is updated by a
 * compare on push and rescanned in the bitmap only when that bucket
 * empties, and frontTick() — the engines' per-access "is anything due
 * before me?" query — is a single load.
 */

#ifndef ABSIM_SIM_CALENDAR_HH
#define ABSIM_SIM_CALENDAR_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace absim::sim {

/**
 * Arena of intrusive nodes: fixed-size blocks, recycled through a
 * freelist threaded through Node::next, so steady state never
 * allocates.  Node memory lives until the pool dies.
 */
template <typename Node>
class NodePool
{
  public:
    Node *
    acquire()
    {
        if (free_ == nullptr) {
            auto block = std::make_unique<Node[]>(kNodesPerBlock);
            for (std::size_t i = kNodesPerBlock; i-- > 0;) {
                block[i].next = free_;
                free_ = &block[i];
            }
            blocks_.push_back(std::move(block));
        }
        Node *node = free_;
        free_ = node->next;
        return node;
    }

    void
    release(Node *node)
    {
        node->next = free_;
        free_ = node;
    }

  private:
    static constexpr std::size_t kNodesPerBlock = 256;

    std::vector<std::unique_ptr<Node[]>> blocks_;
    Node *free_ = nullptr;
};

/** Sliding-window calendar queue over intrusive nodes (see file doc). */
template <typename Node>
class Calendar
{
  public:
    /** Window width in one-tick buckets; a power of two so the bucket
     *  index is a mask. */
    static constexpr std::size_t kBuckets = 4096;

    Calendar()
        : buckets_(new Bucket[kBuckets]()),
          words_(new std::uint64_t[kBucketWords]())
    {
        static_assert(kBucketWords == 64,
                      "summary_ is a single word: exactly 64 bitmap words");
    }

    Calendar(const Calendar &) = delete;
    Calendar &operator=(const Calendar &) = delete;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Pending nodes held by the heap tier (introspection for tests). */
    std::size_t overflowed() const { return overflow_.size(); }

    /** Tick of the earliest pending node, or kTickMax if none. */
    Tick frontTick() const { return frontTick_; }

    /**
     * Enqueue @p node, whose when and seq are set; seq must exceed that
     * of every node pushed before.  @p now is the caller's clock, which
     * may only advance to the tick of a popped node or to a tick before
     * frontTick(); it may run backwards.
     */
    void
    push(Node *node, Tick now)
    {
        ++size_;
        if (now > base_)
            base_ = now;
        // Unsigned: a node behind the window base wraps to a huge
        // offset and goes to the heap, as a far-future one does.
        if (node->when - base_ < Tick{kBuckets})
            pushBucket(node);
        else
            pushOverflow(node);
        if (node->when < frontTick_)
            frontTick_ = node->when;
    }

    /** Detach and return the earliest node.  Precondition: !empty(). */
    Node *
    pop()
    {
        Node *node;
        if (calHead_ != nullptr &&
            (overflow_.empty() || before(calHead_, overflow_.front()))) {
            node = calHead_;
            popBucketHead();
        } else {
            node = popOverflowTop();
        }
        --size_;
        Tick front = calHead_ != nullptr ? calHead_->when : kTickMax;
        if (!overflow_.empty() && overflow_.front()->when < front)
            front = overflow_.front()->when;
        frontTick_ = front;
        return node;
    }

    /** Visit every pending node (tier order, not dispatch order). */
    template <typename F>
    void
    forEach(F &&visit) const
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            for (Node *n = buckets_[i].head; n != nullptr; n = n->next)
                visit(n);
        for (Node *n : overflow_)
            visit(n);
    }

  private:
    static constexpr std::size_t kBucketWords = kBuckets / 64;

    /** A one-tick bucket: FIFO list == (tick, seq) order. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    static bool
    before(const Node *a, const Node *b)
    {
        return a->when < b->when || (a->when == b->when && a->seq < b->seq);
    }

    /** Heap order: the std:: heap algorithms keep the max on top. */
    static bool
    later(const Node *a, const Node *b)
    {
        return before(b, a);
    }

    static std::size_t
    bucketOf(Tick when)
    {
        return static_cast<std::size_t>(when) & (kBuckets - 1);
    }

    void
    pushBucket(Node *node)
    {
        const std::size_t idx = bucketOf(node->when);
        Bucket &b = buckets_[idx];
        node->next = nullptr;
        if (b.tail != nullptr) {
            b.tail->next = node;
        } else {
            b.head = node;
            markBucket(idx);
            // An empty bucket inside the window holds a new tick: the
            // earliest bucket changes iff that tick is earlier.
            if (calHead_ == nullptr || node->when < calHead_->when)
                calHead_ = node;
        }
        b.tail = node;
    }

    /** Unlink calHead_ and find the next earliest bucketed node. */
    void
    popBucketHead()
    {
        Node *node = calHead_;
        if (node->next != nullptr) {
            calHead_ = node->next;
            buckets_[bucketOf(node->when)].head = node->next;
            return;
        }
        const std::size_t idx = bucketOf(node->when);
        buckets_[idx] = Bucket{};
        clearBucket(idx);
        // Everything still bucketed lies in (when, when + kBuckets), so
        // the circular scan from here meets it in tick order.
        const std::size_t next = firstBucketFrom(idx);
        calHead_ = next == kBuckets ? nullptr : buckets_[next].head;
    }

    void
    pushOverflow(Node *node)
    {
        overflow_.push_back(node);
        std::push_heap(overflow_.begin(), overflow_.end(), later);
    }

    Node *
    popOverflowTop()
    {
        Node *top = overflow_.front();
        std::pop_heap(overflow_.begin(), overflow_.end(), later);
        overflow_.pop_back();
        return top;
    }

    void
    markBucket(std::size_t idx)
    {
        const std::size_t word = idx >> 6;
        words_[word] |= std::uint64_t{1} << (idx & 63);
        summary_ |= std::uint64_t{1} << word;
    }

    void
    clearBucket(std::size_t idx)
    {
        const std::size_t word = idx >> 6;
        words_[word] &= ~(std::uint64_t{1} << (idx & 63));
        if (words_[word] == 0)
            summary_ &= ~(std::uint64_t{1} << word);
    }

    /** First occupied bucket in circular order from @p start, or
     *  kBuckets if none.  Three probes: the rest of start's word, whole
     *  later words, then the wrapped-around prefix. */
    std::size_t
    firstBucketFrom(std::size_t start) const
    {
        const std::size_t start_word = start >> 6;
        const std::size_t start_bit = start & 63;

        const std::uint64_t head =
            words_[start_word] & (~std::uint64_t{0} << start_bit);
        if (head != 0)
            return (start_word << 6) +
                   static_cast<std::size_t>(std::countr_zero(head));

        const std::uint64_t later_words =
            start_word == 63
                ? 0
                : summary_ & (~std::uint64_t{0} << (start_word + 1));
        if (later_words != 0)
            return firstInWord(static_cast<std::size_t>(
                std::countr_zero(later_words)));

        const std::uint64_t below =
            summary_ & ((std::uint64_t{1} << start_word) - 1);
        if (below != 0)
            return firstInWord(
                static_cast<std::size_t>(std::countr_zero(below)));
        const std::uint64_t low =
            words_[start_word] & ((std::uint64_t{1} << start_bit) - 1);
        if (low != 0)
            return (start_word << 6) +
                   static_cast<std::size_t>(std::countr_zero(low));
        return kBuckets;
    }

    std::size_t
    firstInWord(std::size_t word) const
    {
        return (word << 6) +
               static_cast<std::size_t>(std::countr_zero(words_[word]));
    }

    std::size_t size_ = 0;
    Tick frontTick_ = kTickMax;
    /** Head of the earliest non-empty bucket; nullptr if none. */
    Node *calHead_ = nullptr;
    /** Window base: high-water mark of the clock passed to push(). */
    Tick base_ = 0;

    std::unique_ptr<Bucket[]> buckets_;
    std::uint64_t summary_ = 0; ///< Which bitmap words are non-zero.
    std::unique_ptr<std::uint64_t[]> words_;

    /** (when, seq) min-heap of nodes outside the window. */
    std::vector<Node *> overflow_;
};

} // namespace absim::sim

#endif // ABSIM_SIM_CALENDAR_HH
