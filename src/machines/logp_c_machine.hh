/**
 * @file
 * The LogP+C machine (paper Section 3.2): the LogP network abstraction
 * augmented with an *ideal coherent cache* per node (see ideal_mem.hh
 * for the cache semantics).
 *
 * Composition: LogPNetModel x IdealCacheMem.  This class only pins the
 * composition and exposes typed accessors for tests.
 */

#ifndef ABSIM_MACHINES_LOGP_C_MACHINE_HH
#define ABSIM_MACHINES_LOGP_C_MACHINE_HH

#include "machines/composed_machine.hh"
#include "machines/ideal_mem.hh"

namespace absim::mach {

class LogPCMachine : public ComposedMachine
{
  public:
    /** Zero-cost global coherence bookkeeping for one block. */
    using OracleEntry = IdealCacheMem::OracleEntry;

    LogPCMachine(sim::EventQueue &eq, net::TopologyKind topo,
                 std::uint32_t nodes, const mem::HomeMap &homes,
                 logp::GapPolicy policy = logp::GapPolicy::Single,
                 const CacheConfig &cache_config = {});

    const logp::LogPNetwork &network() const
    {
        return static_cast<const LogPNetModel &>(netModel()).network();
    }
    const mem::SetAssocCache &cache(net::NodeId n) const
    {
        return idealMem().cache(n);
    }
    const check::CoherenceChecker &checker() const
    {
        return idealMem().checker();
    }

    /** @name Test-only hooks (see IdealCacheMem). */
    /// @{
    mem::SetAssocCache &cacheForTest(net::NodeId n)
    {
        return idealMem().cacheForTest(n);
    }
    OracleEntry &oracleForTest(mem::BlockId blk)
    {
        return idealMem().oracleForTest(blk);
    }
    mem::HolderIndex &holdersForTest() { return idealMem().holdersForTest(); }
    /// @}

  private:
    IdealCacheMem &idealMem()
    {
        return static_cast<IdealCacheMem &>(memModel());
    }
    const IdealCacheMem &idealMem() const
    {
        return static_cast<const IdealCacheMem &>(memModel());
    }
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_LOGP_C_MACHINE_HH
