#include "trace_replay/replay.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "logp/logp_net.hh"
#include "logp/params.hh"
#include "machines/registry.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "runtime/shared.hh"
#include "sim/calendar.hh"
#include "stats/histogram.hh"

namespace absim::trace {

namespace {

using mach::AccessTiming;
using mach::AccessType;
using mach::kCacheHitNs;
using mach::kCtrlBytes;
using mach::kDataBytes;
using mach::kLocalMemNs;
using mem::BlockId;
using mem::LineState;
using net::NodeId;

// ------------------------------------------------------------ frames
//
// Replay coroutine frames churn at miss rate; a per-thread segregated
// freelist turns every frame allocation into a pointer pop.  Sizes are
// rounded to 64-byte granules so a frame returns to the bucket it came
// from via the sized operator delete.

class FramePool
{
  public:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kBuckets = 64; ///< Up to 4 KB pooled.
    static constexpr std::size_t kMaxFree = 256; ///< Per bucket.

    void *
    alloc(std::size_t size)
    {
        const std::size_t b = bucketOf(size);
        if (b < kBuckets && !free_[b].empty()) {
            void *p = free_[b].back();
            free_[b].pop_back();
            return p;
        }
        return ::operator new(b * kGranule);
    }

    void
    release(void *p, std::size_t size)
    {
        const std::size_t b = bucketOf(size);
        if (b < kBuckets && free_[b].size() < kMaxFree) {
            free_[b].push_back(p);
            return;
        }
        ::operator delete(p);
    }

    ~FramePool()
    {
        for (auto &bucket : free_)
            for (void *p : bucket)
                ::operator delete(p);
    }

  private:
    static std::size_t
    bucketOf(std::size_t size)
    {
        return (size + kGranule - 1) / kGranule;
    }

    std::vector<void *> free_[kBuckets];
};

FramePool &
framePool()
{
    thread_local FramePool pool;
    return pool;
}

struct PooledPromise
{
    static void *
    operator new(std::size_t n)
    {
        return framePool().alloc(n);
    }

    static void
    operator delete(void *p, std::size_t n)
    {
        framePool().release(p, n);
    }
};

// ------------------------------------------------------------ engine
//
// Mirror of sim::EventQueue as the replay needs it: coroutine
// resumptions dispatched in (tick, seq) order.  Sequence numbers are
// allocated at schedule time, so same-tick events dispatch in schedule
// order — exactly the real queue's same-tick FIFO guarantee, which is
// what makes the mirrored schedule deterministic and equal to
// execution's.
//
// The container is the execution engine's own: a sim::Calendar of
// pooled nodes (sim/calendar.hh), whose one-tick buckets slide with the
// clock and whose front tick is cached.  nextEventTime() gates every
// fastAccess and maybeYield decision, so it is by far the most-called
// engine entry point; on the calendar it is one load.

class REngine
{
  public:
    REngine() = default;
    REngine(const REngine &) = delete;
    REngine &operator=(const REngine &) = delete;

    sim::Tick now() const { return now_; }

    /** Tick of the earliest pending event, kTickMax if none. */
    sim::Tick nextEventTime() const { return calendar_.frontTick(); }

    void
    schedule(std::coroutine_handle<> h, sim::Tick when)
    {
        ABSIM_DCHECK(when >= now_, "replay event scheduled in the past");
        Node *node = pool_.acquire();
        node->when = when;
        node->seq = seq_++;
        node->h = h;
        calendar_.push(node, now_);
    }

    /** Dispatch until drained (or a captured error stops the run). */
    void
    run(const std::exception_ptr &error)
    {
        while (!calendar_.empty() && error == nullptr) {
            Node *node = calendar_.pop();
            now_ = node->when;
            ++dispatched_;
            const std::coroutine_handle<> h = node->h;
            pool_.release(node);
            h.resume();
        }
    }

    std::uint64_t dispatched() const { return dispatched_; }

  private:
    struct Node
    {
        sim::Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr;
        std::coroutine_handle<> h;
    };

    sim::Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
    sim::Calendar<Node> calendar_;
    sim::NodePool<Node> pool_;
};

/** co_await EngineAt{eng, t}: mirror of Process::delayUntil(t) — always
 *  schedules one resume event, even for t == now.  Execution counts the
 *  same dispatch but, when that resume is strictly the next event,
 *  advances the clock in place instead of queueing it
 *  (EventQueue::tryAdvanceInPlace); counts and order are identical. */
struct EngineAt
{
    REngine &eng;
    sim::Tick when;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eng.schedule(h, when);
    }

    void await_resume() const noexcept {}
};

// ------------------------------------------------- blocking mirrors

/** Mirror of sim::FifoMutex: FIFO hand-off; a woken waiter owns the
 *  lock directly and its wake is one engine event. */
struct RFifo
{
    bool locked = false;
    std::deque<std::coroutine_handle<>> waiters;

    void
    release(REngine &eng)
    {
        if (waiters.empty()) {
            locked = false;
            return;
        }
        const std::coroutine_handle<> next = waiters.front();
        waiters.pop_front();
        eng.schedule(next, eng.now()); // Process::wake().
    }
};

/** co_await FifoAcquire{...} -> Duration waited. */
struct FifoAcquire
{
    RFifo &fifo;
    REngine &eng;
    sim::Tick began = 0;

    bool
    await_ready() noexcept
    {
        if (!fifo.locked && fifo.waiters.empty()) {
            fifo.locked = true;
            began = eng.now();
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        began = eng.now();
        fifo.waiters.push_back(h);
    }

    sim::Duration await_resume() const { return eng.now() - began; }
};

/** Mirror of sim::Latch (single waiter). */
struct RLatch
{
    std::uint32_t count;
    std::coroutine_handle<> waiter = nullptr;

    void
    countDown(REngine &eng)
    {
        ABSIM_DCHECK(count > 0, "replay latch underflow");
        if (--count == 0 && waiter != nullptr) {
            eng.schedule(waiter, eng.now()); // Process::wake().
            waiter = nullptr;
        }
    }
};

struct LatchAwait
{
    RLatch &latch;

    bool await_ready() const noexcept { return latch.count == 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        latch.waiter = h;
    }

    void await_resume() const noexcept {}
};

// --------------------------------------------------------- RTask<T>
//
// An eagerly-started awaitable coroutine with pooled frames and
// symmetric transfer back to the awaiter.  Exceptions propagate to the
// awaiting coroutine at co_await; the top-level (detached) coroutines
// catch them into the replay context.

template <typename T>
struct RTask
{
    struct promise_type : PooledPromise
    {
        T value{};
        std::exception_ptr error;
        std::coroutine_handle<> cont;

        RTask
        get_return_object()
        {
            return RTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_never initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h)
                const noexcept
            {
                const auto cont = h.promise().cont;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() const noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void return_value(T v) { value = std::move(v); }

        void unhandled_exception()
        {
            error = std::current_exception();
        }
    };

    explicit RTask(std::coroutine_handle<promise_type> h) : h_(h) {}
    RTask(RTask &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    RTask(const RTask &) = delete;
    RTask &operator=(const RTask &) = delete;
    RTask &operator=(RTask &&) = delete;

    ~RTask()
    {
        if (h_)
            h_.destroy();
    }

    bool await_ready() const noexcept { return h_.done(); }

    void
    await_suspend(std::coroutine_handle<> cont) const noexcept
    {
        h_.promise().cont = cont;
    }

    T
    await_resume() const
    {
        if (h_.promise().error)
            std::rethrow_exception(h_.promise().error);
        return std::move(h_.promise().value);
    }

    std::coroutine_handle<promise_type> h_;
};

template <>
struct RTask<void>
{
    struct promise_type : PooledPromise
    {
        std::exception_ptr error;
        std::coroutine_handle<> cont;

        RTask
        get_return_object()
        {
            return RTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_never initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h)
                const noexcept
            {
                const auto cont = h.promise().cont;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() const noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void return_void() {}

        void unhandled_exception()
        {
            error = std::current_exception();
        }
    };

    explicit RTask(std::coroutine_handle<promise_type> h) : h_(h) {}
    RTask(RTask &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    RTask(const RTask &) = delete;
    RTask &operator=(const RTask &) = delete;
    RTask &operator=(RTask &&) = delete;

    ~RTask()
    {
        if (h_)
            h_.destroy();
    }

    bool await_ready() const noexcept { return h_.done(); }

    void
    await_suspend(std::coroutine_handle<> cont) const noexcept
    {
        h_.promise().cont = cont;
    }

    void
    await_resume() const
    {
        if (h_.promise().error)
            std::rethrow_exception(h_.promise().error);
    }

    std::coroutine_handle<promise_type> h_;
};

/** Fire-and-forget coroutine (workers, invalidation helpers): the
 *  frame self-destroys when the body returns.  Bodies must catch their
 *  own exceptions (into Ctx::error). */
struct Detached
{
    struct promise_type : PooledPromise
    {
        Detached get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };
};

// ----------------------------------------------------- replay state

struct NetResult
{
    sim::Duration latency = 0;
    sim::Duration contention = 0;
    std::uint32_t messages = 0;
};

/** Mirror of mem::DirectoryEntry (sharers/owner + the per-block home
 *  lock); mirror of IdealCacheMem::OracleEntry when lock is unused. */
struct REntry
{
    std::uint64_t sharers = 0;
    std::int32_t owner = -1;
    RFifo lock;
};

struct RBarrier
{
    std::uint32_t parties = 0;
    mem::Addr senseAddr = 0;
    std::array<std::uint64_t, mem::kMaxNodes> localSense{};
};

/** Mirror of rt::Backoff. */
struct RBackoff
{
    std::uint64_t cycles = 4;
    static constexpr std::uint64_t kCap = 256;
};

/** One replayed processor: the Proc mirror plus its stream cursor. */
struct RWorker
{
    NodeId node = 0;
    sim::Tick localTime = 0;
    std::uint64_t lastRmwOld = 0;
    bool finished = false;

    stats::ProcStats stats;
    stats::ProcStats phaseSnapshot;
    stats::Histogram hist;
    std::string currentPhase = "main";
    std::vector<stats::PhaseStats> phases;

    /** Mirror of Proc::flushPhase(). */
    void
    flushPhase()
    {
        stats::PhaseStats delta;
        delta.name = currentPhase;
        delta.busy = stats.busy - phaseSnapshot.busy;
        delta.latency = stats.latency - phaseSnapshot.latency;
        delta.contention = stats.contention - phaseSnapshot.contention;
        delta.wait = stats.wait - phaseSnapshot.wait;
        phaseSnapshot = stats;
        for (stats::PhaseStats &phase : phases) {
            if (phase.name == delta.name) {
                phase.busy += delta.busy;
                phase.latency += delta.latency;
                phase.contention += delta.contention;
                phase.wait += delta.wait;
                return;
            }
        }
        phases.push_back(std::move(delta));
    }

    /** Mirror of Proc::computeNs / Backoff::pause. */
    void
    compute(sim::Duration ns)
    {
        localTime += ns;
        stats.busy += ns;
    }

    void
    pause(RBackoff &b)
    {
        compute(sim::cycles(b.cycles));
        b.cycles = std::min(b.cycles * 2, RBackoff::kCap);
    }
};

enum class NetKind : std::uint8_t
{
    LogP,
    Detailed,
};

enum class MemKind : std::uint8_t
{
    Directory,
    Ideal,
    Uncached,
};

struct Ctx
{
    const Trace &trace;
    const ReplaySpec &spec;
    REngine eng;
    std::exception_ptr error;

    NetKind netKind;
    MemKind memKind;
    std::uint32_t nodes;

    rt::SharedHeap heap;
    std::unordered_map<mem::Addr, std::uint64_t> store;
    std::unordered_map<mem::Addr, RBarrier> barriers;

    // Machine state (which members are live depends on the kinds).
    mach::MachineStats ms;
    std::vector<mem::SetAssocCache> caches;
    std::unordered_map<BlockId, REntry> dir; ///< Directory OR oracle.
    std::unique_ptr<logp::LogPNetwork> logp;
    std::unique_ptr<net::Topology> topo;
    std::vector<RFifo> links;
    std::vector<net::LinkId> routeScratch; ///< Reused by routePath().

    std::vector<RWorker> workers;
    std::uint32_t unfinished = 0;

    explicit Ctx(const Trace &t, const ReplaySpec &s)
        : trace(t), spec(s), heap(t.procs)
    {
    }

    std::uint64_t
    load(mem::Addr a) const
    {
        const auto it = store.find(a);
        return it == store.end() ? 0 : it->second;
    }

    // ----- network mirrors ------------------------------------------
    //
    // The detailed-network legs are written out inline at each call
    // site (hop / roundTrip / fanOutHelper) instead of delegating to a
    // transfer() coroutine: the transfer chain used to cost three
    // pooled frames per message, and messages dominate the replay's
    // frame churn.  The suspension sequence — one FifoAcquire per
    // route link, one EngineAt for the wire latency, releases on the
    // way out — is untouched, so the event schedule (and therefore
    // bit-identity with execution) is unchanged.

    /** Longest minimal route any topology produces: an 8x8 mesh's
     *  opposite corners (14 links).  Rounded up to a power of two. */
    static constexpr std::size_t kMaxPath = 16;

    /**
     * Route @p src -> @p dst into the caller's inline link array.
     * The shared scratch vector keeps route()'s vector interface
     * without a heap allocation per message; the copy into the
     * caller's frame happens before any suspension, so interleaved
     * transfers cannot clobber it.
     */
    std::size_t
    routePath(NodeId src, NodeId dst,
              std::array<net::LinkId, kMaxPath> &path)
    {
        routeScratch.clear();
        topo->route(src, dst, routeScratch);
        ABSIM_CHECK(routeScratch.size() <= kMaxPath,
                    "replay route " << src << "->" << dst
                                    << " exceeds " << kMaxPath
                                    << " links");
        std::copy(routeScratch.begin(), routeScratch.end(),
                  path.begin());
        return routeScratch.size();
    }

    /** Mirror of NetModel::roundTrip (one coroutine frame: both
     *  detailed legs run inline). */
    RTask<NetResult>
    roundTrip(NodeId src, NodeId dst, std::uint32_t reply_bytes)
    {
        if (netKind == NetKind::LogP) {
            const logp::LogPTiming rt =
                logp->roundTrip(src, dst, eng.now());
            co_await EngineAt{eng, rt.deliveredAt};
            co_return NetResult{rt.latency, rt.contention, rt.messages};
        }
        NetResult r;
        r.messages = 2;
        std::array<net::LinkId, kMaxPath> path;
        // Request leg (control payload), then the reply leg.
        std::size_t n = routePath(src, dst, path);
        for (std::size_t i = 0; i < n; ++i)
            r.contention += co_await FifoAcquire{links[path[i]], eng};
        sim::Duration leg =
            net::DetailedNetwork::transmissionTime(kCtrlBytes);
        r.latency += leg;
        co_await EngineAt{eng, eng.now() + leg};
        for (std::size_t i = n; i-- > 0;)
            links[path[i]].release(eng);

        n = routePath(dst, src, path);
        for (std::size_t i = 0; i < n; ++i)
            r.contention += co_await FifoAcquire{links[path[i]], eng};
        leg = net::DetailedNetwork::transmissionTime(reply_bytes);
        r.latency += leg;
        co_await EngineAt{eng, eng.now() + leg};
        for (std::size_t i = n; i-- > 0;)
            links[path[i]].release(eng);
        co_return r;
    }

    struct HelperResult
    {
        sim::Duration latency = 0;
        sim::Tick doneAt = 0;
    };

    /** Mirror of one DetailedNetModel fan-out helper process: starts
     *  with the spawnDetached start(began) event, then the inv/ack
     *  transfers.  @p results / @p latch live in fanOut's suspended
     *  frame, which outlives every helper (it resumes only after the
     *  last countDown's wake event). */
    Detached
    fanOutHelper(NodeId center, NodeId tgt, HelperResult *result,
                 RLatch *latch, sim::Tick began)
    {
        try {
            co_await EngineAt{eng, began};
            sim::Duration latency = 0;
            std::array<net::LinkId, kMaxPath> path;
            // Invalidate leg out, ack leg back (both control-sized).
            std::size_t n = routePath(center, tgt, path);
            for (std::size_t i = 0; i < n; ++i)
                (void)co_await FifoAcquire{links[path[i]], eng};
            sim::Duration leg =
                net::DetailedNetwork::transmissionTime(kCtrlBytes);
            latency += leg;
            co_await EngineAt{eng, eng.now() + leg};
            for (std::size_t i = n; i-- > 0;)
                links[path[i]].release(eng);

            n = routePath(tgt, center, path);
            for (std::size_t i = 0; i < n; ++i)
                (void)co_await FifoAcquire{links[path[i]], eng};
            leg = net::DetailedNetwork::transmissionTime(kCtrlBytes);
            latency += leg;
            co_await EngineAt{eng, eng.now() + leg};
            for (std::size_t i = n; i-- > 0;)
                links[path[i]].release(eng);

            result->latency = latency;
            result->doneAt = eng.now();
            latch->countDown(eng);
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
    }

    /** Mirror of NetModel::fanOutRoundTrips. */
    RTask<NetResult>
    fanOut(NodeId center, const std::vector<NodeId> &targets)
    {
        NetResult t;
        const sim::Tick began = eng.now();
        if (netKind == NetKind::LogP) {
            // All round trips start now; the center's g-gates serialize
            // the sends.  Last maximal delivery carries the critical
            // latency (>=, like the execution model).
            sim::Tick latest = began;
            sim::Duration critical = 0;
            for (const NodeId tgt : targets) {
                const logp::LogPTiming rt =
                    logp->roundTrip(center, tgt, began);
                t.messages += rt.messages;
                if (rt.deliveredAt >= latest) {
                    latest = rt.deliveredAt;
                    critical = rt.latency;
                }
            }
            co_await EngineAt{eng, latest};
            t.latency = critical;
            t.contention = (latest - began) - critical;
            co_return t;
        }
        std::vector<HelperResult> results(targets.size());
        RLatch latch{static_cast<std::uint32_t>(targets.size())};
        for (std::size_t i = 0; i < targets.size(); ++i) {
            t.messages += 2;
            fanOutHelper(center, targets[i], &results[i], &latch, began);
        }
        co_await LatchAwait{latch};
        const sim::Tick elapsed = eng.now() - began;
        sim::Duration critical = 0;
        sim::Tick latest = 0;
        for (const HelperResult &r : results) {
            if (r.doneAt >= latest) {
                latest = r.doneAt;
                critical = r.latency;
            }
        }
        t.latency = critical;
        t.contention = elapsed - critical;
        co_return t;
    }

    // ----- directory memory mirror ----------------------------------

    /** Mirror of DirectoryMem::hop (one coroutine frame: the network
     *  leg runs inline instead of chaining transfer coroutines). */
    RTask<void>
    hop(NodeId src, NodeId dst, std::uint32_t bytes, AccessTiming &t)
    {
        if (src == dst) {
            if (bytes == kDataBytes)
                t.busy += kLocalMemNs;
            co_return;
        }
        if (netKind == NetKind::LogP) {
            // LogP messages cost L regardless of payload.
            const logp::LogPTiming m = logp->message(src, dst, eng.now());
            co_await EngineAt{eng, m.deliveredAt};
            t.latency += m.latency;
            t.contention += m.contention;
            ms.messages += m.messages;
            co_return;
        }
        std::array<net::LinkId, kMaxPath> path;
        const std::size_t n = routePath(src, dst, path);
        sim::Duration contention = 0;
        for (std::size_t i = 0; i < n; ++i)
            contention += co_await FifoAcquire{links[path[i]], eng};
        const sim::Duration latency =
            net::DetailedNetwork::transmissionTime(bytes);
        co_await EngineAt{eng, eng.now() + latency};
        for (std::size_t i = n; i-- > 0;)
            links[path[i]].release(eng);
        t.latency += latency;
        t.contention += contention;
        ++ms.messages;
    }

    /** Mirror of DirectoryMem::writeback. */
    RTask<void>
    writeback(NodeId node, BlockId victim, AccessTiming &t)
    {
        REntry &entry = dir[victim];
        t.contention += co_await FifoAcquire{entry.lock, eng};
        if (!mem::isOwned(caches[node].stateOf(victim))) {
            entry.lock.release(eng);
            co_return;
        }
        ++ms.writebacks;
        const NodeId home = heap.homeOf(mem::blockBase(victim));
        co_await hop(node, home, kDataBytes, t);
        if (entry.owner == static_cast<std::int32_t>(node))
            entry.owner = -1;
        entry.sharers &= ~(std::uint64_t{1} << node);
        caches[node].setState(victim, LineState::Invalid);
        entry.lock.release(eng);
    }

    /** Mirror of DirectoryMem::readMiss. */
    RTask<void>
    readMiss(NodeId node, BlockId blk, AccessTiming &t)
    {
        ++ms.readMisses;
        const NodeId home = heap.homeOf(mem::blockBase(blk));
        REntry &entry = dir[blk];
        t.contention += co_await FifoAcquire{entry.lock, eng};

        co_await hop(node, home, kCtrlBytes, t);

        if (entry.owner != -1) {
            const auto owner = static_cast<NodeId>(entry.owner);
            if (spec.protocol == mach::ProtocolKind::Berkeley) {
                co_await hop(home, owner, kCtrlBytes, t);
                co_await hop(owner, node, kDataBytes, t);
                caches[owner].setState(blk, LineState::SharedDirty);
            } else {
                co_await hop(home, owner, kCtrlBytes, t);
                co_await hop(owner, home, kDataBytes, t);
                co_await hop(home, node, kDataBytes, t);
                caches[owner].setState(blk, LineState::Valid);
                entry.owner = -1;
            }
        } else {
            co_await hop(home, node, kDataBytes, t);
        }

        entry.sharers |= std::uint64_t{1} << node;
        caches[node].install(blk, LineState::Valid);
        entry.lock.release(eng);
    }

    /** Mirror of DirectoryMem::writeMiss + invalidateSharers. */
    RTask<void>
    writeMiss(NodeId node, BlockId blk, bool have_line, AccessTiming &t)
    {
        const NodeId home = heap.homeOf(mem::blockBase(blk));
        REntry &entry = dir[blk];
        t.contention += co_await FifoAcquire{entry.lock, eng};

        // The upgrade may have been invalidated while waiting for the
        // lock; the transaction degenerates into a plain write miss.
        if (have_line &&
            caches[node].stateOf(blk) == LineState::Invalid)
            have_line = false;

        if (have_line)
            ++ms.upgrades;
        else
            ++ms.writeMisses;

        co_await hop(node, home, kCtrlBytes, t);

        if (!have_line) {
            if (entry.owner != -1 &&
                entry.owner != static_cast<std::int32_t>(node)) {
                const auto owner = static_cast<NodeId>(entry.owner);
                if (spec.protocol == mach::ProtocolKind::Berkeley) {
                    co_await hop(home, owner, kCtrlBytes, t);
                    co_await hop(owner, node, kDataBytes, t);
                } else {
                    co_await hop(home, owner, kCtrlBytes, t);
                    co_await hop(owner, home, kDataBytes, t);
                    co_await hop(home, node, kDataBytes, t);
                }
                caches[owner].invalidate(blk);
                entry.sharers &= ~(std::uint64_t{1} << owner);
                entry.owner = -1;
            } else {
                co_await hop(home, node, kDataBytes, t);
            }
        }

        // invalidateSharers: flips first (the home lock is the
        // serialization point), traffic after.
        std::vector<NodeId> remote_targets;
        for (NodeId s = 0; s < nodes; ++s) {
            if (s == node || ((entry.sharers >> s) & 1u) == 0)
                continue;
            caches[s].invalidate(blk);
            ++ms.invalidations;
            if (s != home)
                remote_targets.push_back(s);
        }
        entry.sharers = 0;
        if (!remote_targets.empty()) {
            const NetResult r = co_await fanOut(home, remote_targets);
            ms.messages += r.messages;
            t.latency += r.latency;
            t.contention += r.contention;
        }

        co_await hop(home, node, kCtrlBytes, t);

        entry.sharers = std::uint64_t{1} << node;
        entry.owner = static_cast<std::int32_t>(node);
        if (have_line)
            caches[node].setState(blk, LineState::Dirty);
        else
            caches[node].install(blk, LineState::Dirty);
        entry.lock.release(eng);
    }

    // ----- ideal memory mirror (all pure: no co_awaits needed) ------

    /** Mirror of IdealCacheMem::makeRoom (free-teleport writeback). */
    void
    idealMakeRoom(NodeId node, BlockId blk)
    {
        BlockId victim;
        LineState vstate;
        if (!caches[node].victimFor(blk, victim, vstate))
            return;
        REntry &entry = dir[victim];
        entry.sharers &= ~(std::uint64_t{1} << node);
        if (entry.owner == static_cast<std::int32_t>(node))
            entry.owner = -1;
        caches[node].setState(victim, LineState::Invalid);
    }

    /** Mirror of IdealCacheMem::invalidateOthers. */
    void
    idealInvalidateOthers(NodeId node, BlockId blk, REntry &entry)
    {
        const std::uint64_t others =
            entry.sharers & ~(std::uint64_t{1} << node);
        if (others != 0) {
            for (NodeId s = 0; s < nodes; ++s) {
                if ((others >> s) & 1u) {
                    caches[s].invalidate(blk);
                    ++ms.invalidations;
                }
            }
        }
        entry.sharers = std::uint64_t{1} << node;
        entry.owner = static_cast<std::int32_t>(node);
    }

    // ----- the access path ------------------------------------------

    /**
     * Non-blocking fast path, mirroring exactly the machine paths that
     * return without touching the engine (cache hits, free ideal
     * upgrades, uncached local references) — no coroutine frame.
     * @return false when the access needs the slow path (including any
     *         access issued while the local clock has passed the next
     *         engine event: that is maybeYield territory).
     */
    bool
    fastAccess(RWorker &w, mem::Addr addr, AccessType type)
    {
        if (w.localTime >= eng.nextEventTime())
            return false; // maybeYield first.
        return hitAccess(w, addr, type);
    }

    /**
     * Every machine path that completes without touching the engine
     * (cache hits, free ideal upgrades, uncached local references),
     * run in the caller's frame.  Mutates nothing when it declines, so
     * missAccess can re-read the same state.  Callers run it either
     * before any yield (via fastAccess) or immediately after the
     * maybeYield suspension — the same two points execution evaluates
     * its hit checks.
     */
    bool
    hitAccess(RWorker &w, mem::Addr addr, AccessType type)
    {
        AccessTiming t;
        switch (memKind) {
          case MemKind::Uncached: {
            const NodeId home = heap.homeOf(addr);
            if (home != w.node)
                return false;
            ++ms.accesses;
            ++ms.localMem;
            t.busy = kLocalMemNs;
            break;
          }
          case MemKind::Directory: {
            const BlockId blk = mem::blockOf(addr);
            const LineState state = caches[w.node].stateOf(blk);
            const bool is_read = (type == AccessType::Read);
            if (is_read ? state == LineState::Invalid
                        : state != LineState::Dirty)
                return false;
            ++ms.accesses;
            caches[w.node].touch(blk);
            ++ms.cacheHits;
            t.busy = kCacheHitNs;
            break;
          }
          case MemKind::Ideal: {
            const BlockId blk = mem::blockOf(addr);
            const LineState state = caches[w.node].stateOf(blk);
            const bool is_read = (type == AccessType::Read);
            if (is_read ? state != LineState::Invalid
                        : state == LineState::Dirty) {
                ++ms.accesses;
                caches[w.node].touch(blk);
                ++ms.cacheHits;
                t.busy = kCacheHitNs;
                break;
            }
            if (!is_read && state != LineState::Invalid) {
                // Free upgrade: state flips only.
                ++ms.accesses;
                ++ms.upgrades;
                idealInvalidateOthers(w.node, blk, dir[blk]);
                caches[w.node].setState(blk, LineState::Dirty);
                caches[w.node].touch(blk);
                t.busy = kCacheHitNs;
                break;
            }
            return false;
          }
        }
        finishAccess(w, t);
        return true;
    }

    /** Mirror of the Proc::access postlude + ComposedMachine::access. */
    void
    finishAccess(RWorker &w, const AccessTiming &t)
    {
        ms.memTime += t.busy;
        w.localTime = std::max(w.localTime, eng.now()) + t.busy;
        w.stats.busy += t.busy;
        w.stats.latency += t.latency;
        w.stats.contention += t.contention;
        ++w.stats.accesses;
        if (t.networked) {
            ++w.stats.networkAccesses;
            w.hist.record(t.latency + t.contention);
        }
    }

    /**
     * The genuine-miss half of the access path.  Callers have already
     * run maybeYield (in the worker frame) and re-run the hit checks
     * via hitAccess — the re-check matters because while yielded,
     * other processors' events may have changed this node's cache
     * state, exactly as in execution (where the hit check also runs
     * after maybeYield).  Only misses pay for a coroutine frame.
     */
    RTask<void>
    missAccess(RWorker &w, mem::Addr addr, AccessType type)
    {
        AccessTiming t;
        switch (memKind) {
          case MemKind::Uncached: {
            // hitAccess() handled the home == w.node case.
            ++ms.accesses;
            const NodeId home = heap.homeOf(addr);
            co_await EngineAt{eng, w.localTime}; // syncToEngine.
            t.networked = true;
            ++ms.networkAccesses;
            NetResult rt;
            if (netKind == NetKind::LogP) {
                // Inline LogP round trip: no coroutine frame for the
                // by-far-commonest uncached miss.
                const logp::LogPTiming lt =
                    logp->roundTrip(w.node, home, eng.now());
                co_await EngineAt{eng, lt.deliveredAt};
                rt = NetResult{lt.latency, lt.contention, lt.messages};
            } else {
                rt = co_await roundTrip(w.node, home, kDataBytes);
            }
            ms.messages += rt.messages;
            t.latency = rt.latency;
            t.contention = rt.contention;
            break;
          }
          case MemKind::Directory: {
            ++ms.accesses;
            const NodeId node = w.node;
            const BlockId blk = mem::blockOf(addr);
            const LineState state = caches[node].stateOf(blk);
            const bool is_read = (type == AccessType::Read);
            co_await EngineAt{eng, w.localTime}; // syncToEngine.
            const std::uint64_t messages_before = ms.messages;
            if (state == LineState::Invalid) {
                // Mirror of DirectoryMem::makeRoom, inline.
                BlockId victim;
                LineState vstate;
                if (caches[node].victimFor(blk, victim, vstate) &&
                    mem::isOwned(vstate))
                    co_await writeback(node, victim, t);
            }
            if (is_read)
                co_await readMiss(node, blk, t);
            else
                co_await writeMiss(node, blk,
                                   state != LineState::Invalid, t);
            if (ms.messages != messages_before) {
                t.networked = true;
                ++ms.networkAccesses;
            } else {
                ++ms.localMem;
            }
            t.busy += kCacheHitNs;
            break;
          }
          case MemKind::Ideal: {
            // hitAccess() handled hits and free upgrades.
            ++ms.accesses;
            const NodeId node = w.node;
            const BlockId blk = mem::blockOf(addr);
            const bool is_read = (type == AccessType::Read);
            if (is_read)
                ++ms.readMisses;
            else
                ++ms.writeMisses;
            idealMakeRoom(node, blk);

            REntry &entry = dir[blk];
            const NodeId home = heap.homeOf(addr);
            NodeId source = home;
            if (entry.owner >= 0 &&
                entry.owner != static_cast<std::int32_t>(node))
                source = static_cast<NodeId>(entry.owner);

            if (source != node) {
                co_await EngineAt{eng, w.localTime}; // syncToEngine.
                t.networked = true;
                ++ms.networkAccesses;
                NetResult rt;
                if (netKind == NetKind::LogP) {
                    const logp::LogPTiming lt =
                        logp->roundTrip(node, source, eng.now());
                    co_await EngineAt{eng, lt.deliveredAt};
                    rt = NetResult{lt.latency, lt.contention,
                                   lt.messages};
                } else {
                    rt = co_await roundTrip(node, source, kDataBytes);
                }
                ms.messages += rt.messages;
                t.latency = rt.latency;
                t.contention = rt.contention;
            } else {
                ++ms.localMem;
                t.busy += kLocalMemNs;
            }

            if (is_read) {
                if (entry.owner >= 0 &&
                    entry.owner != static_cast<std::int32_t>(node))
                    caches[static_cast<NodeId>(entry.owner)].setState(
                        blk, LineState::SharedDirty);
                entry.sharers |= std::uint64_t{1} << node;
                caches[node].install(blk, LineState::Valid);
            } else {
                idealInvalidateOthers(node, blk, entry);
                caches[node].install(blk, LineState::Dirty);
            }
            t.busy += kCacheHitNs;
            break;
          }
        }
        finishAccess(w, t);
    }

    // ----- the worker ------------------------------------------------

    /** One processor's stream interpreter; mirrors the worker fiber. */
    Detached
    worker(RWorker &w, const std::vector<Op> &ops)
    {
        try {
            // Process::start(0): the spawn event.
            co_await EngineAt{eng, 0};

            const std::uint32_t width = 8; // Sync/RMW words (uint64).
            for (const Op &op : ops) {
                switch (op.kind) {
                  case OpKind::Compute:
                    w.compute(op.value);
                    break;

                  case OpKind::Phase:
                    w.flushPhase();
                    w.currentPhase = trace.phaseNames[op.aux];
                    break;

                  // Every shared access runs the same three-step
                  // mirror of Proc::access *in this frame*: fast path,
                  // maybeYield, post-yield hit re-check.  Only genuine
                  // misses allocate a coroutine (missAccess); hits —
                  // the overwhelming majority — never leave the worker.
                  case OpKind::Read:
                    if (!fastAccess(w, op.addr, AccessType::Read)) {
                        if (w.localTime >= eng.nextEventTime())
                            co_await EngineAt{eng, w.localTime};
                        if (!hitAccess(w, op.addr, AccessType::Read))
                            co_await missAccess(w, op.addr,
                                                AccessType::Read);
                    }
                    break;

                  case OpKind::Write:
                    if (!fastAccess(w, op.addr, AccessType::Write)) {
                        if (w.localTime >= eng.nextEventTime())
                            co_await EngineAt{eng, w.localTime};
                        if (!hitAccess(w, op.addr, AccessType::Write))
                            co_await missAccess(w, op.addr,
                                                AccessType::Write);
                    }
                    store[op.addr] = op.value;
                    break;

                  case OpKind::DepWrite: {
                    // Slot re-derived from the *replayed* RMW result.
                    const mem::Addr a =
                        op.addr + w.lastRmwOld * op.bytes;
                    if (!fastAccess(w, a, AccessType::Write)) {
                        if (w.localTime >= eng.nextEventTime())
                            co_await EngineAt{eng, w.localTime};
                        if (!hitAccess(w, a, AccessType::Write))
                            co_await missAccess(w, a,
                                                AccessType::Write);
                    }
                    store[a] = op.value;
                    break;
                  }

                  case OpKind::RmwFetchAdd: {
                    if (!fastAccess(w, op.addr, AccessType::Rmw)) {
                        if (w.localTime >= eng.nextEventTime())
                            co_await EngineAt{eng, w.localTime};
                        if (!hitAccess(w, op.addr, AccessType::Rmw))
                            co_await missAccess(w, op.addr,
                                                AccessType::Rmw);
                    }
                    const std::uint64_t old = load(op.addr);
                    store[op.addr] = maskTo(old + op.value, op.bytes);
                    w.lastRmwOld = old;
                    break;
                  }

                  case OpKind::RmwTestAndSet: {
                    if (!fastAccess(w, op.addr, AccessType::Rmw)) {
                        if (w.localTime >= eng.nextEventTime())
                            co_await EngineAt{eng, w.localTime};
                        if (!hitAccess(w, op.addr, AccessType::Rmw))
                            co_await missAccess(w, op.addr,
                                                AccessType::Rmw);
                    }
                    const std::uint64_t old = load(op.addr);
                    store[op.addr] = 1;
                    w.lastRmwOld = old;
                    break;
                  }

                  case OpKind::SyncLockTS:
                  case OpKind::SyncLockTTS: {
                    // Mirror of SpinLock::lock (TTS test loop, then
                    // test&set, bounded exponential backoff).
                    RBackoff backoff;
                    for (;;) {
                        if (op.kind == OpKind::SyncLockTTS) {
                            for (;;) {
                                if (!fastAccess(w, op.addr,
                                                AccessType::Read)) {
                                    if (w.localTime >=
                                        eng.nextEventTime())
                                        co_await EngineAt{
                                            eng, w.localTime};
                                    if (!hitAccess(w, op.addr,
                                                   AccessType::Read))
                                        co_await missAccess(
                                            w, op.addr,
                                            AccessType::Read);
                                }
                                if (load(op.addr) == 0)
                                    break;
                                w.pause(backoff);
                            }
                        }
                        if (!fastAccess(w, op.addr, AccessType::Rmw)) {
                            if (w.localTime >= eng.nextEventTime())
                                co_await EngineAt{eng, w.localTime};
                            if (!hitAccess(w, op.addr,
                                           AccessType::Rmw))
                                co_await missAccess(w, op.addr,
                                                    AccessType::Rmw);
                        }
                        const std::uint64_t old = load(op.addr);
                        store[op.addr] = 1;
                        if (old == 0)
                            break;
                        w.pause(backoff);
                    }
                    break;
                  }

                  case OpKind::SyncBarrier: {
                    // Mirror of Barrier::arrive (sense reversal).
                    auto it = barriers.find(op.addr);
                    if (it == barriers.end())
                        throw ReplayError(
                            "trace: barrier arrival without a barrier "
                            "setup record");
                    RBarrier &b = it->second;
                    const std::uint64_t my_sense =
                        1 - b.localSense[w.node];
                    b.localSense[w.node] = my_sense;

                    if (!fastAccess(w, op.addr, AccessType::Rmw)) {
                        if (w.localTime >= eng.nextEventTime())
                            co_await EngineAt{eng, w.localTime};
                        if (!hitAccess(w, op.addr, AccessType::Rmw))
                            co_await missAccess(w, op.addr,
                                                AccessType::Rmw);
                    }
                    const std::uint64_t arrived = load(op.addr);
                    store[op.addr] = maskTo(arrived + 1, width);

                    if (arrived == b.parties - 1) {
                        if (!fastAccess(w, op.addr,
                                        AccessType::Write)) {
                            if (w.localTime >= eng.nextEventTime())
                                co_await EngineAt{eng, w.localTime};
                            if (!hitAccess(w, op.addr,
                                           AccessType::Write))
                                co_await missAccess(w, op.addr,
                                                    AccessType::Write);
                        }
                        store[op.addr] = 0;
                        if (!fastAccess(w, b.senseAddr,
                                        AccessType::Write)) {
                            if (w.localTime >= eng.nextEventTime())
                                co_await EngineAt{eng, w.localTime};
                            if (!hitAccess(w, b.senseAddr,
                                           AccessType::Write))
                                co_await missAccess(w, b.senseAddr,
                                                    AccessType::Write);
                        }
                        store[b.senseAddr] = my_sense;
                        break;
                    }
                    RBackoff backoff;
                    for (;;) {
                        if (!fastAccess(w, b.senseAddr,
                                        AccessType::Read)) {
                            if (w.localTime >= eng.nextEventTime())
                                co_await EngineAt{eng, w.localTime};
                            if (!hitAccess(w, b.senseAddr,
                                           AccessType::Read))
                                co_await missAccess(w, b.senseAddr,
                                                    AccessType::Read);
                        }
                        if (load(b.senseAddr) == my_sense)
                            break;
                        w.pause(backoff);
                    }
                    break;
                  }

                  case OpKind::SyncFlagWait: {
                    // Mirror of Flag::waitFor.
                    RBackoff backoff;
                    for (;;) {
                        if (!fastAccess(w, op.addr,
                                        AccessType::Read)) {
                            if (w.localTime >= eng.nextEventTime())
                                co_await EngineAt{eng, w.localTime};
                            if (!hitAccess(w, op.addr,
                                           AccessType::Read))
                                co_await missAccess(w, op.addr,
                                                    AccessType::Read);
                        }
                        if (load(op.addr) == op.value)
                            break;
                        w.pause(backoff);
                    }
                    break;
                  }
                }
            }

            // Proc::recordFinish.
            w.stats.finishTime = w.localTime;
            w.flushPhase();
            w.finished = true;
            --unfinished;
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
    }

    static std::uint64_t
    maskTo(std::uint64_t v, std::uint32_t bytes)
    {
        return bytes >= 8
                   ? v
                   : v & ((std::uint64_t{1} << (8 * bytes)) - 1);
    }
};

void
rebuildSetup(Ctx &ctx)
{
    for (const SetupOp &op : ctx.trace.setup) {
        switch (op.kind) {
          case SetupOp::Alloc: {
            const mem::Addr base = ctx.heap.allocate(
                op.a, static_cast<rt::Placement>(op.b),
                static_cast<NodeId>(op.c));
            if (base != op.d)
                throw ReplayError(
                    "trace: allocator layout mismatch (trace recorded a "
                    "different heap discipline?)");
            break;
          }
          case SetupOp::Barrier: {
            RBarrier b;
            b.parties = static_cast<std::uint32_t>(op.c);
            b.senseAddr = op.b;
            ctx.barriers[op.a] = b;
            break;
          }
          case SetupOp::InitValue:
            ctx.store[op.a] = op.b;
            break;
        }
    }
}

} // namespace

stats::Profile
replayTrace(const Trace &trace, const ReplaySpec &spec)
{
    // absim-lint: D1 ok(wall-clock cost accounting for Profile.wallSeconds; never reaches simulated time or figure bytes)
    const auto wall_begin = std::chrono::steady_clock::now();

    if (!trace.replayable)
        throw ReplayError("trace is marked non-replayable (" +
                          trace.untraceableWhy + ")");
    if (trace.procs == 0 || trace.streams.size() != trace.procs)
        throw ReplayError("trace has no usable processor streams");

    Ctx ctx(trace, spec);
    ctx.nodes = trace.procs;

    const mach::MachineSpec &mspec = mach::specFor(spec.machine);
    const std::string netName = mspec.netModel;
    const std::string memName = mspec.memModel;
    if (netName == "logp")
        ctx.netKind = NetKind::LogP;
    else if (netName == "detailed")
        ctx.netKind = NetKind::Detailed;
    else
        throw ReplayError("machine '" + std::string(mspec.name) +
                          "' has no replayable network model");
    if (memName == "directory")
        ctx.memKind = MemKind::Directory;
    else if (memName == "ideal")
        ctx.memKind = MemKind::Ideal;
    else if (memName == "uncached")
        ctx.memKind = MemKind::Uncached;
    else
        throw ReplayError("machine '" + std::string(mspec.name) +
                          "' has no replayable memory model");

    if (ctx.netKind == NetKind::LogP) {
        ctx.logp = std::make_unique<logp::LogPNetwork>(
            logp::paramsFor(spec.topology, trace.procs), spec.gapPolicy);
    } else {
        ctx.topo = net::Topology::make(spec.topology, trace.procs);
        ctx.links.resize(ctx.topo->linkCount());
    }
    if (ctx.memKind != MemKind::Uncached) {
        ctx.caches.reserve(trace.procs);
        for (std::uint32_t i = 0; i < trace.procs; ++i)
            ctx.caches.emplace_back(spec.cache.bytes, spec.cache.ways);
    }

    // Pre-size the value store and directory: rehashing mid-replay is
    // pure overhead the execution engine never pays (it uses real
    // memory), and the op count bounds how many keys can appear.
    std::size_t total_ops = trace.setup.size();
    for (const auto &stream : trace.streams)
        total_ops += stream.size();
    ctx.store.reserve(std::min<std::size_t>(total_ops, 1u << 20));
    ctx.dir.reserve(std::min<std::size_t>(total_ops, 1u << 16));

    rebuildSetup(ctx);

    // Spawn order mirrors Runtime::spawn: worker i's start(0) event is
    // the i-th event scheduled, so the same-tick FIFO dispatch order at
    // tick 0 equals execution's.
    ctx.workers.resize(trace.procs);
    ctx.unfinished = trace.procs;
    for (std::uint32_t i = 0; i < trace.procs; ++i) {
        ctx.workers[i].node = static_cast<NodeId>(i);
        ctx.worker(ctx.workers[i], trace.streams[i]);
    }

    ctx.eng.run(ctx.error);
    if (ctx.error)
        std::rethrow_exception(ctx.error);
    if (ctx.unfinished > 0)
        throw ReplayError(
            "replay deadlock: event queue drained with " +
            std::to_string(ctx.unfinished) +
            " worker streams unfinished (torn or cross-machine-invalid "
            "trace?)");

    stats::Profile profile;
    profile.procs.reserve(trace.procs);
    profile.procPhases.reserve(trace.procs);
    for (const RWorker &w : ctx.workers) {
        profile.procs.push_back(w.stats);
        profile.procPhases.push_back(w.phases);
        profile.remoteLatency.merge(w.hist);
    }
    profile.machine = ctx.ms;
    profile.netModel = netName;
    profile.memModel = memName;
    profile.engineEvents = ctx.eng.dispatched();
    // absim-lint: D1 ok(closing wall-clock stamp for Profile.wallSeconds, same contract as execution's)
    const auto wall_end = std::chrono::steady_clock::now();
    profile.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_begin).count();
    return profile;
}

} // namespace absim::trace
