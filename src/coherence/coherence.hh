/**
 * @file
 * Directory-based MSI/MESI coherence over the shared inclusive LLC,
 * implemented as a policy object separate from the cache structures
 * (FlexiCAS-style separation): the directory tracks which cores'
 * private L1/L2 hierarchies may hold each block and what permission
 * they have; the caches themselves stay protocol-agnostic, so every
 * LLC organization built by makeLlc() gets coherence for free.
 *
 * Sharer masks are *sticky supersets*: a core is added on every read
 * or write touch and removed only when the protocol invalidates it or
 * the LLC evicts the block. Silent private-cache evictions do NOT
 * inform the directory (exactly like real hardware without replacement
 * hints), which is safe because Hierarchy::invalidateUpper() is
 * idempotent — invalidating a core that silently dropped its copy is a
 * no-op. The superset property is what MultiCoreSystem relies on when
 * it routes LLC back-invalidations through onLlcEviction() instead of
 * broadcasting to every core.
 *
 * See docs/coherence.md for the protocol walkthrough and the
 * never-worse argument under invalidations.
 */

#ifndef BVC_COHERENCE_COHERENCE_HH_
#define BVC_COHERENCE_COHERENCE_HH_

#include <cstdint>
#include <unordered_map>

#include "util/stats.hh"
#include "util/strong_types.hh"
#include "util/types.hh"

namespace bvc
{

/** Protocol selection for MultiCoreSystem. */
enum class CoherenceKind
{
    None, //!< no directory: LLC back-invalidations broadcast to all cores
    Msi,  //!< Modified / Shared / Invalid
    Mesi, //!< MSI plus silent-upgrade Exclusive grants
};

/** Printable protocol name. */
const char *coherenceKindName(CoherenceKind kind);

/**
 * What the requesting system must do to other cores' private caches
 * after a directory transition: `invalidate` names cores whose copies
 * must drop (write by another core), `downgrade` names cores whose
 * possibly-dirty exclusive copies must flush to the shared LLC but may
 * stay resident in Shared state (read by another core).
 */
struct CoherenceAction
{
    std::uint64_t invalidate = 0; //!< bit i: core i drops its copy
    std::uint64_t downgrade = 0;  //!< bit i: core i flushes, keeps Shared
};

/**
 * The per-block directory. One instance per MultiCoreSystem; not
 * internally synchronized (same single-host-thread stepping contract
 * as the system that owns it).
 */
class CoherenceDirectory
{
  public:
    /** Sharer masks are one word wide: at most 64 cores. */
    static constexpr std::size_t kMaxCores = 64;

    CoherenceDirectory(CoherenceKind kind, std::size_t cores);

    /** A core's private hierarchy is about to fill/read `blk`. */
    CoherenceAction onRead(CoreId core, Addr blk);

    /** A core is about to write `blk` (store, even on an L1 hit). */
    CoherenceAction onWrite(CoreId core, Addr blk);

    /**
     * The LLC dropped `blk` (eviction or snoop): return the sticky
     * sharer superset that must be back-invalidated, and forget the
     * block.
     */
    std::uint64_t onLlcEviction(Addr blk);

    /** Current sharer mask (superset of actual holders); 0 if unknown. */
    [[nodiscard]] std::uint64_t sharers(Addr blk) const;

    /** Directory state of one block. */
    enum class State : std::uint8_t
    {
        Invalid,
        Shared,
        Exclusive, //!< MESI only: one clean owner
        Modified,
    };
    [[nodiscard]] State state(Addr blk) const;

    [[nodiscard]] CoherenceKind kind() const { return kind_; }
    [[nodiscard]] std::size_t cores() const { return cores_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::uint64_t sharers = 0;    //!< bit i: core i may hold a copy
        State state = State::Invalid; //!< directory state of the block
    };

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "reads", "writes", "upgrades", "silent_upgrades",
        "invalidations_sent", "downgrades_sent", "exclusive_grants",
        "llc_evictions"};

    CoherenceKind kind_;
    std::size_t cores_;
    std::unordered_map<Addr, Entry> dir_;
    StatGroup stats_;
};

} // namespace bvc

#endif // BVC_COHERENCE_COHERENCE_HH_
