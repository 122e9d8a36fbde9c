/**
 * @file
 * Directory/cache coherence invariant checker.
 *
 * Both stateful memory models (mach::DirectoryMem, the real directory
 * protocol behind target and logp+dir, and mach::IdealCacheMem, the
 * ideal coherent cache behind logp+c and target+ic) perform
 * Berkeley-protocol state transitions; the paper's comparison is
 * meaningful only if those transitions are exact.  This checker verifies, block by block, the
 * invariants any ownership-based invalidation protocol must maintain at
 * transaction boundaries:
 *
 *  - SWMR: at most one cache holds the block in an ownership state
 *    (Dirty / SharedDirty), and a Dirty copy is the *only* copy.
 *  - Directory agreement: every resident copy is a registered sharer,
 *    the directory's owner field names exactly the cache holding the
 *    owned copy, and (for machines whose sharer bits are exact, like the
 *    LogP+C oracle) every sharer bit corresponds to a resident copy.
 *
 * The memory models invoke checkBlock() after every protocol transition,
 * passing the directory (or oracle) entry the transaction already holds,
 * and checkAll() at drain; both are no-ops when
 * check::options().coherence is off.
 *
 * Cost: checkBlock() visits only the block's holders, which it reads from
 * the model's holder shadow (mem::HolderIndex, kept by the caches
 * themselves), so a transition costs O(holders) rather than O(P).
 * checkAll() is the oracle for that shortcut: it probes every cache for
 * every block, asserts the shadow equals that scan, and verifies each
 * block from the scan, in ascending block order.
 */

#ifndef ABSIM_CHECK_COHERENCE_HH
#define ABSIM_CHECK_COHERENCE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "mem/cache.hh"
#include "mem/holder_index.hh"

namespace absim::check {

/** A directory's view of one block, as reported by the machine. */
struct DirInfo
{
    /** Bit i set = the directory believes node i holds a copy. */
    std::uint64_t sharers = 0;

    /** Owning node, or -1 for none. */
    std::int32_t owner = -1;

    /** False if the directory has never seen the block. */
    bool tracked = false;

    bool
    isSharer(net::NodeId n) const
    {
        return (sharers >> n) & 1u;
    }
};

class CoherenceChecker
{
  public:
    /** Report the directory state of one block (drain sweep only). */
    using Lookup = std::function<DirInfo(mem::BlockId)>;

    /** Visit every block the directory tracks. */
    using Enumerate =
        std::function<void(const std::function<void(mem::BlockId)> &)>;

    /**
     * @param name           Machine name used in failure messages.
     * @param exact_sharers  True if the machine's sharer bits are exact
     *                       (no stale bits from silent clean
     *                       replacements, e.g. the LogP+C oracle).
     * @param caches         The machine's per-node caches (must outlive
     *                       the checker; never resized).
     * @param holders        The shadow those caches maintain.
     * @param lookup         Directory state accessor, used by checkAll().
     * @param enumerate      Directory iteration, used by checkAll().
     */
    CoherenceChecker(
        std::string name, bool exact_sharers,
        const std::vector<std::unique_ptr<mem::SetAssocCache>> &caches,
        const mem::HolderIndex &holders, Lookup lookup, Enumerate enumerate);

    /**
     * Verify the invariants for @p blk, whose directory state is @p dir,
     * visiting only the caches the shadow lists as holders.  Call at a
     * transaction boundary: the block must not be mid-transition.
     */
    void checkBlock(mem::BlockId blk, const DirInfo &dir) const;

    /**
     * Full sweep.  Every block the directory tracks or the shadow lists
     * is probed in every cache, in ascending block order: the shadow must
     * equal that scan and the block must pass checkBlock's invariants.
     * A last pass over every resident line catches copies of blocks
     * neither knows.
     */
    void checkAll() const;

    /** Blocks verified so far (proves the validator ran). */
    std::uint64_t blocksChecked() const { return blocksChecked_; }

  private:
    /** The invariants, given the exact set of caches holding @p blk. */
    void verify(mem::BlockId blk, const DirInfo &dir,
                std::uint64_t holders) const;

    std::string name_;
    bool exactSharers_;
    const std::vector<std::unique_ptr<mem::SetAssocCache>> &caches_;
    const mem::HolderIndex &holders_;
    Lookup lookup_;
    Enumerate enumerate_;
    mutable std::uint64_t blocksChecked_ = 0;
};

} // namespace absim::check

#endif // ABSIM_CHECK_COHERENCE_HH
