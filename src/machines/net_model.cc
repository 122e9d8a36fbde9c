#include "machines/net_model.hh"

#include <memory>
#include <vector>

#include "sim/process.hh"

namespace absim::mach {

using net::NodeId;

DetailedNetModel::DetailedNetModel(sim::EventQueue &eq,
                                   net::TopologyKind topo,
                                   std::uint32_t nodes)
    : eq_(eq), net_(std::make_unique<net::DetailedNetwork>(
                   eq, net::Topology::make(topo, nodes)))
{
}

NetTiming
DetailedNetModel::transfer(NodeId src, NodeId dst, std::uint32_t bytes)
{
    const net::TransferResult r = net_->transfer(src, dst, bytes);
    return NetTiming{r.latency, r.contention, 1};
}

NetTiming
DetailedNetModel::roundTrip(NodeId src, NodeId dst,
                            std::uint32_t reply_bytes)
{
    const net::TransferResult req = net_->transfer(src, dst, kCtrlBytes);
    const net::TransferResult rep = net_->transfer(dst, src, reply_bytes);
    return NetTiming{req.latency + rep.latency,
                     req.contention + rep.contention, 2};
}

NetTiming
DetailedNetModel::fanOutRoundTrips(NodeId center,
                                   std::span<const NodeId> targets)
{
    // One helper process per target runs the inv/ack round trip; the
    // caller waits on the latch for the slowest.
    struct HelperResult
    {
        sim::Duration latency = 0;
        sim::Tick doneAt = 0;
    };
    auto results =
        std::make_shared<std::vector<HelperResult>>(targets.size());
    auto latch = std::make_shared<sim::Latch>(
        static_cast<std::uint32_t>(targets.size()));

    NetTiming t;
    const sim::Tick began = eq_.now();
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const NodeId tgt = targets[i];
        t.messages += 2;
        sim::spawnDetached(
            eq_, "inv-helper",
            [this, center, tgt, i, results, latch] {
                const auto inv = net_->transfer(center, tgt, kCtrlBytes);
                const auto ack = net_->transfer(tgt, center, kCtrlBytes);
                (*results)[i].latency = inv.latency + ack.latency;
                (*results)[i].doneAt = eq_.now();
                latch->countDown();
            },
            began);
    }
    latch->await();

    // The caller waited for the slowest helper; charge that helper's
    // contention-free time as latency and the remainder as contention,
    // which partitions the elapsed wait exactly.
    const sim::Tick elapsed = eq_.now() - began;
    sim::Duration critical_latency = 0;
    sim::Tick latest = 0;
    for (const HelperResult &r : *results) {
        if (r.doneAt >= latest) {
            latest = r.doneAt;
            critical_latency = r.latency;
        }
    }
    t.latency = critical_latency;
    t.contention = elapsed - critical_latency;
    return t;
}

LogPNetModel::LogPNetModel(sim::EventQueue &eq, net::TopologyKind topo,
                           std::uint32_t nodes, logp::GapPolicy policy)
    : eq_(eq), net_(std::make_unique<logp::LogPNetwork>(
                   logp::paramsFor(topo, nodes), policy))
{
}

NetTiming
LogPNetModel::transfer(NodeId src, NodeId dst, std::uint32_t bytes)
{
    (void)bytes; // LogP messages cost L regardless of payload.
    const logp::LogPTiming m = net_->message(src, dst, eq_.now());
    sim::Process::current()->delayUntil(m.deliveredAt);
    return NetTiming{m.latency, m.contention, m.messages};
}

NetTiming
LogPNetModel::roundTrip(NodeId src, NodeId dst, std::uint32_t reply_bytes)
{
    (void)reply_bytes;
    const logp::LogPTiming rt = net_->roundTrip(src, dst, eq_.now());
    sim::Process::current()->delayUntil(rt.deliveredAt);
    return NetTiming{rt.latency, rt.contention, rt.messages};
}

NetTiming
LogPNetModel::fanOutRoundTrips(NodeId center,
                               std::span<const NodeId> targets)
{
    // All round trips start now; g-gates at the center serialize the
    // sends, which is exactly LogP's model of an invalidation fan-out.
    NetTiming t;
    const sim::Tick began = eq_.now();
    sim::Tick latest = began;
    sim::Duration critical_latency = 0;
    for (const NodeId tgt : targets) {
        const logp::LogPTiming rt = net_->roundTrip(center, tgt, began);
        t.messages += rt.messages;
        if (rt.deliveredAt >= latest) {
            latest = rt.deliveredAt;
            critical_latency = rt.latency;
        }
    }
    sim::Process::current()->delayUntil(latest);
    t.latency = critical_latency;
    t.contention = (latest - began) - critical_latency;
    return t;
}

} // namespace absim::mach
