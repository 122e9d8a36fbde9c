#include "net/network.hh"

#include "check/check.hh"
#include "sim/trace.hh"

namespace absim::net {

DetailedNetwork::DetailedNetwork(sim::EventQueue &eq,
                                 std::unique_ptr<Topology> topo)
    : eq_(eq), topo_(std::move(topo))
{
    links_.reserve(topo_->linkCount());
    for (std::uint32_t i = 0; i < topo_->linkCount(); ++i)
        links_.push_back(std::make_unique<sim::FifoMutex>());
    // P^2 routes: for the largest machine (an 8x8 mesh) under 100 KB.
    const NodeId p = topo_->nodes();
    routeBegin_.reserve(static_cast<std::size_t>(p) * p + 1);
    routeBegin_.push_back(0);
    for (NodeId src = 0; src < p; ++src)
        for (NodeId dst = 0; dst < p; ++dst) {
            if (src != dst)
                topo_->route(src, dst, routeLinks_);
            routeBegin_.push_back(
                static_cast<std::uint32_t>(routeLinks_.size()));
        }
}

TransferResult
DetailedNetwork::transfer(NodeId src, NodeId dst, std::uint32_t bytes)
{
    ABSIM_CHECK(src != dst,
                "local transfer at node " << src
                                          << " reached the network");
    sim::Process *self = sim::Process::current();
    ABSIM_CHECK(self != nullptr, "transfer outside a simulated process");

    const std::span<const LinkId> route = path(src, dst);

    TransferResult result;
    // Circuit set-up: grab links in route order.  Holding earlier links
    // while waiting for later ones is exactly wormhole/circuit behaviour
    // and is deadlock-free under dimension-ordered routing.
    for (LinkId link : route)
        result.contention += links_[link]->acquire();

    // Whole circuit held for the serial transmission time; switching
    // delay is negligible per the paper, so hop count does not add time.
    result.latency = transmissionTime(bytes);
    self->delay(result.latency);

    for (auto it = route.rbegin(); it != route.rend(); ++it)
        links_[*it]->release();

    ++stats_.messages;
    stats_.bytes += bytes;
    stats_.latency += result.latency;
    stats_.contention += result.contention;
    ABSIM_TRACE(eq_, Network, "transfer " << src << "->" << dst << " "
                                          << bytes << "B latency="
                                          << result.latency << " wait="
                                          << result.contention);
    return result;
}

} // namespace absim::net
