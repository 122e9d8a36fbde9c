/**
 * @file
 * The detailed target machine: a CC-NUMA shared-memory multiprocessor with
 * per-node 64 KB 2-way private caches kept sequentially consistent by an
 * invalidation-based (Berkeley) fully-mapped directory protocol, on top of
 * the detailed circuit-switched interconnect (paper Sections 3 and 5).
 *
 * Composition: DetailedNetModel x DirectoryMem (see directory_mem.hh for
 * the protocol and composed_machine.hh for the shell).  This class only
 * pins the composition and exposes typed accessors for tests.
 */

#ifndef ABSIM_MACHINES_TARGET_MACHINE_HH
#define ABSIM_MACHINES_TARGET_MACHINE_HH

#include "machines/composed_machine.hh"
#include "machines/directory_mem.hh"

namespace absim::mach {

class TargetMachine : public ComposedMachine
{
  public:
    /**
     * @param eq     Engine.
     * @param topo   Interconnect topology (the machine owns the network).
     * @param nodes  Processor/node count.
     * @param homes  Address-to-home-node mapping.
     */
    TargetMachine(sim::EventQueue &eq, net::TopologyKind topo,
                  std::uint32_t nodes, const mem::HomeMap &homes,
                  const CacheConfig &cache_config = {},
                  ProtocolKind protocol = ProtocolKind::Berkeley);

    const net::DetailedNetwork &network() const
    {
        return static_cast<const DetailedNetModel &>(netModel()).network();
    }
    ProtocolKind protocol() const { return dirMem().protocol(); }
    const mem::SetAssocCache &cache(net::NodeId n) const
    {
        return dirMem().cache(n);
    }
    const mem::Directory &directory() const { return dirMem().directory(); }
    const check::CoherenceChecker &checker() const
    {
        return dirMem().checker();
    }

    /** @name Test-only hooks (see DirectoryMem). */
    /// @{
    mem::SetAssocCache &cacheForTest(net::NodeId n)
    {
        return dirMem().cacheForTest(n);
    }
    mem::Directory &directoryForTest() { return dirMem().directoryForTest(); }
    mem::HolderIndex &holdersForTest() { return dirMem().holdersForTest(); }
    /// @}

  private:
    DirectoryMem &dirMem() { return static_cast<DirectoryMem &>(memModel()); }
    const DirectoryMem &dirMem() const
    {
        return static_cast<const DirectoryMem &>(memModel());
    }
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_TARGET_MACHINE_HH
