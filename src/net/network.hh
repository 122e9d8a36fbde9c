/**
 * @file
 * Detailed circuit-switched interconnect simulation.
 *
 * Models the detailed network axis per Section 5 of the paper: serial
 * unidirectional links at 20 MB/s, circuit-switched wormhole transfer,
 * negligible switching delay.  A message incrementally reserves every link
 * on its dimension-ordered route (incremental acquisition + dimension
 * order = deadlock-free), holds the whole circuit for the transmission
 * time, and releases.  Time spent waiting for links is the message's
 * contention; the transmission time itself is its latency — precisely the
 * SPASM overhead split the paper relies on.
 *
 * Machine compositions reach this network through mach::DetailedNetModel
 * (the "detailed" rows of the registry grid: target, target+ic); see
 * docs/MACHINES.md.
 */

#ifndef ABSIM_NET_NETWORK_HH
#define ABSIM_NET_NETWORK_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/topology.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/types.hh"

namespace absim::net {

/** Per-transfer timing split, in ticks. */
struct TransferResult
{
    sim::Duration latency = 0;    ///< Contention-free transmission time.
    sim::Duration contention = 0; ///< Time spent waiting for links.
};

/** Aggregate network statistics. */
struct NetworkStats
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    sim::Duration latency = 0;
    sim::Duration contention = 0;
};

/**
 * The detailed interconnect (the target machine's network axis).
 *
 * transfer() must be called from inside a simulated process; it blocks in
 * simulated time for the full circuit set-up, transmission, and tear-down.
 */
class DetailedNetwork
{
  public:
    /** Link bandwidth: 20 MB/s serial links => 50 ns per byte. */
    static constexpr sim::Duration kNsPerByte = 50;

    DetailedNetwork(sim::EventQueue &eq, std::unique_ptr<Topology> topo);

    DetailedNetwork(const DetailedNetwork &) = delete;
    DetailedNetwork &operator=(const DetailedNetwork &) = delete;

    /**
     * Send @p bytes from @p src to @p dst, blocking the calling process
     * for the whole transfer.
     *
     * @return The latency/contention split for this message.
     */
    TransferResult transfer(NodeId src, NodeId dst, std::uint32_t bytes);

    /** Contention-free transmission time for a message of @p bytes. */
    static sim::Duration
    transmissionTime(std::uint32_t bytes)
    {
        return bytes * kNsPerByte;
    }

    /** The links a message from @p src to @p dst takes, in order:
     *  Topology::route(), tabulated once at construction. */
    std::span<const LinkId>
    path(NodeId src, NodeId dst) const
    {
        const std::size_t pair =
            static_cast<std::size_t>(src) * topo_->nodes() + dst;
        return {routeLinks_.data() + routeBegin_[pair],
                routeLinks_.data() + routeBegin_[pair + 1]};
    }

    const Topology &topology() const { return *topo_; }
    const NetworkStats &stats() const { return stats_; }

  private:
    sim::EventQueue &eq_;
    std::unique_ptr<Topology> topo_;
    /** Flat route table: the route of pair (src, dst) is
     *  routeLinks_[routeBegin_[src * P + dst], routeBegin_[... + 1]). */
    std::vector<std::uint32_t> routeBegin_;
    std::vector<LinkId> routeLinks_;
    std::vector<std::unique_ptr<sim::FifoMutex>> links_;
    NetworkStats stats_;
};

} // namespace absim::net

#endif // ABSIM_NET_NETWORK_HH
