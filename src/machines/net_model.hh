/**
 * @file
 * The network axis of a machine characterization.
 *
 * A NetModel is the transport a memory model charges its messages to:
 * either the detailed circuit-switched interconnect (net::DetailedNetwork,
 * with per-link contention) or the LogP abstraction (logp::LogPNetwork,
 * with L latency and g-gate contention).  Memory models are written
 * against this interface only, so any memory system composes with any
 * network — the independent-axes variation at the heart of the paper.
 *
 * All calls block the calling simulated process until the transfer
 * completes in simulated time; the caller must have synchronized its
 * local clock with the engine (MemClient::syncToEngine) first.
 */

#ifndef ABSIM_MACHINES_NET_MODEL_HH
#define ABSIM_MACHINES_NET_MODEL_HH

#include <memory>
#include <span>

#include "logp/logp_net.hh"
#include "machines/machine.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace absim::mach {

/** Timing split of one network operation, in ticks. */
struct NetTiming
{
    sim::Duration latency = 0;    ///< Contention-free transmission time.
    sim::Duration contention = 0; ///< Link waits / g-gate waits.
    std::uint32_t messages = 0;   ///< Messages this operation injected.
};

class NetModel
{
  public:
    virtual ~NetModel() = default;

    /** Axis identity: "detailed" or "logp". */
    virtual const char *name() const = 0;

    /** One message from @p src to @p dst, blocking until delivery. */
    virtual NetTiming transfer(net::NodeId src, net::NodeId dst,
                               std::uint32_t bytes) = 0;

    /**
     * A request/reply round trip (control request out, @p reply_bytes
     * back), blocking until the reply is delivered — the shape of every
     * remote memory reference.
     */
    virtual NetTiming roundTrip(net::NodeId src, net::NodeId dst,
                                std::uint32_t reply_bytes) = 0;

    /**
     * Parallel invalidation/ack round trips (control-sized both ways)
     * from @p center to every node in @p targets, blocking until the
     * slowest completes.  The result partitions the elapsed wait
     * exactly: latency is the critical (last-delivered) trip's
     * contention-free time, contention is the remainder.
     *
     * @pre !targets.empty()
     */
    virtual NetTiming fanOutRoundTrips(
        net::NodeId center, std::span<const net::NodeId> targets) = 0;
};

/** The detailed circuit-switched interconnect (paper Section 5). */
class DetailedNetModel : public NetModel
{
  public:
    DetailedNetModel(sim::EventQueue &eq, net::TopologyKind topo,
                     std::uint32_t nodes);

    const char *name() const override { return "detailed"; }

    NetTiming transfer(net::NodeId src, net::NodeId dst,
                       std::uint32_t bytes) override;
    NetTiming roundTrip(net::NodeId src, net::NodeId dst,
                        std::uint32_t reply_bytes) override;
    NetTiming fanOutRoundTrips(
        net::NodeId center,
        std::span<const net::NodeId> targets) override;

    const net::DetailedNetwork &network() const { return *net_; }

  private:
    sim::EventQueue &eq_;
    std::unique_ptr<net::DetailedNetwork> net_;
};

/** The LogP network abstraction (paper Section 3.1). */
class LogPNetModel : public NetModel
{
  public:
    LogPNetModel(sim::EventQueue &eq, net::TopologyKind topo,
                 std::uint32_t nodes, logp::GapPolicy policy);

    const char *name() const override { return "logp"; }

    NetTiming transfer(net::NodeId src, net::NodeId dst,
                       std::uint32_t bytes) override;
    NetTiming roundTrip(net::NodeId src, net::NodeId dst,
                        std::uint32_t reply_bytes) override;
    NetTiming fanOutRoundTrips(
        net::NodeId center,
        std::span<const net::NodeId> targets) override;

    const logp::LogPNetwork &network() const { return *net_; }

  private:
    sim::EventQueue &eq_;
    std::unique_ptr<logp::LogPNetwork> net_;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_NET_MODEL_HH
