/**
 * @file
 * The Base-Victim opportunistic compressed cache — the paper's primary
 * contribution (Section IV). The LLC is logically split per set into a
 * Baseline (B) Cache, one tag per physical way that strictly runs the
 * baseline replacement policy and therefore always mirrors the content
 * of an uncompressed cache, and a Victim (V) Cache, a second tag per
 * physical way that opportunistically retains *clean* baseline-eviction
 * victims when their compressed size fits alongside the base line in the
 * same 64B physical way.
 *
 * Guarantees maintained by this implementation (all property-tested):
 *   - the B-cache content and replacement state equal those of an
 *     uncompressed cache with the same policy at every step, so the hit
 *     rate can never drop below the uncompressed cache's;
 *   - V-cache lines are always clean, so victim evictions are silent
 *     and each fill performs at most one memory writeback;
 *   - size(base) + size(victim) <= 16 segments in every physical way;
 *   - upper levels only cache B-content lines (inclusion): moving a
 *     line into the V cache back-invalidates L1/L2.
 */

#ifndef BVC_CORE_BASE_VICTIM_CACHE_HH_
#define BVC_CORE_BASE_VICTIM_CACHE_HH_

#include <memory>
#include <optional>

#include "cache/cache_line.hh"
#include "cache/tag_array.hh"
#include "core/llc_interface.hh"
#include "core/victim_replacement.hh"
#include "replacement/factory.hh"

namespace bvc
{

/** Base-Victim opportunistic compressed LLC. */
class BaseVictimLlc : public Llc
{
  public:
    /**
     * @param sizeBytes  data-array capacity, identical to the baseline
     * @param physWays   physical associativity (16-way in the paper)
     * @param baseRepl   Baseline-Cache replacement policy (NRU default)
     * @param victimRepl Victim-Cache policy (ECM-inspired default)
     * @param comp       compression algorithm (not owned)
     * @param inclusive  true (paper's evaluation): victim lines are
     *        kept clean via writeback + back-invalidation on insertion
     *        and victim evictions are silent. false (Section IV.B.3):
     *        victim lines may be dirty, write hits to the Victim Cache
     *        promote like read hits, and dirty victim evictions write
     *        back to memory.
     */
    BaseVictimLlc(std::size_t sizeBytes, std::size_t physWays,
                  ReplacementKind baseRepl, VictimReplKind victimRepl,
                  const Compressor &comp, bool inclusive = true,
                  // Compressed-size alignment: 4 (the paper's
                  // evaluation) or 8 (the paper's worked examples);
                  // coarser alignment needs fewer metadata bits but
                  // pairs fewer lines (Section IV.C ablation).
                  unsigned segmentQuantumBytes = kSegmentBytes);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    [[nodiscard]] bool probeBase(Addr blk) const override;
    void downgradeHint(Addr blk) override;
    /**
     * Snoop invalidation. A base copy drops exactly as the uncompressed
     * cache would (writeback if dirty, back-invalidation, replacement
     * onInvalidate), so the mirror invariant is preserved. A victim
     * copy is not baseline content: it drops silently (clean when
     * inclusive) with no traffic — which is precisely why the
     * never-worse guarantee survives coherence invalidations
     * (docs/coherence.md).
     */
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;
    [[nodiscard]] std::string name() const override
    {
        return "BaseVictim";
    }

    [[nodiscard]] std::size_t numSets() const { return sets_; }
    [[nodiscard]] std::size_t numWays() const { return ways_; }
    [[nodiscard]] SetIdx setIndex(Addr blk) const;

    /** True if `blk` currently resides in the Victim Cache section. */
    [[nodiscard]] bool probeVictim(Addr blk) const;

    /** Sorted valid base-line addresses of a set (mirror test). */
    [[nodiscard]] std::vector<Addr> baseSetContents(SetIdx set) const;

    /** Invariant: every victim line is clean and pair-fit holds. */
    [[nodiscard]] bool checkInvariants() const;

    /**
     * Structural invariants of one set (Section IV.A): clean-only
     * victims when inclusive, pair-fit <= 16 segments per physical
     * way, no line in both sections. Empty string when they hold,
     * otherwise a description of the first violation.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const;

    /** True in the paper's inclusive configuration (Section IV.B.3). */
    [[nodiscard]] bool inclusive() const { return inclusive_; }

    /** Baseline-Cache line by value (lockstep mirror check). */
    [[nodiscard]] CacheLine baseLineAt(SetIdx set, WayIdx way) const
    {
        return base_.line(set, way);
    }

    /** Victim-Cache line by value (structural checks, tests). */
    [[nodiscard]] CacheLine victimLineAt(SetIdx set, WayIdx way) const
    {
        return victim_.line(set, way);
    }

    /**
     * Force-write a Victim-Cache slot, for tests ONLY: lets the
     * checker's death tests install a corrupted state (dirty inclusive
     * victim, duplicated tag) that no legal access sequence can
     * produce. An invalid `line` clears the slot.
     */
    void debugSetVictimLine(SetIdx set, WayIdx way,
                            const CacheLine &line)
    {
        if (line.valid)
            victim_.install(set, way, line);
        else
            victim_.invalidate(set, way);
    }

    /** Baseline replacement state words for `set` (lockstep check). */
    [[nodiscard]] std::vector<std::uint64_t>
    baseReplStateSnapshot(SetIdx set) const
    {
        return baseRepl_->stateSnapshot(set);
    }

  private:
    /** Why a victim line is silently dropped (per-reason counters). */
    enum class VictimEvictReason
    {
        Displaced,   //!< lost the slot to another inserted victim
        Partner,     //!< base partner grew on fill, pair no longer fits
        WriteGrowth, //!< base partner grew on a write hit
    };

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "accesses", "demand_accesses", "writeback_hits", "compressions",
        "decompressions", "demand_hits", "base_hits", "prefetch_hits",
        "victim_hits", "victim_prefetch_hits", "victim_write_hits",
        "promotions", "data_movements", "demand_misses", "prefetch_misses",
        "writeback_fills", "base_evictions", "mem_writebacks",
        "back_invalidations", "fills", "victim_inserts",
        "victim_insert_failures", "dirty_victim_evictions",
        "victim_silent_evictions", "victim_silent_evictions_displaced",
        "victim_silent_evictions_partner",
        "victim_silent_evictions_write_growth", "coherence_invalidations",
        "victim_coherence_invalidations"};

    /** The victim_silent_evictions_<reason> counter for `reason`. */
    Counter &silentEvictions(VictimEvictReason reason);

    [[nodiscard]] std::optional<WayIdx> findBase(SetIdx set,
                                                 Addr blk) const
    {
        return base_.find(set, blk);
    }
    [[nodiscard]] std::optional<WayIdx> findVictim(SetIdx set,
                                                   Addr blk) const
    {
        return victim_.find(set, blk);
    }

    /** Baseline victim way: invalid-first, then the base policy. */
    [[nodiscard]] WayIdx chooseBaseWay(SetIdx set);

    /**
     * Install `incoming` into base way `way`, handling the eviction of
     * the previous base occupant (writeback + back-invalidation + an
     * opportunistic move into the Victim Cache) and the displacement of
     * a victim partner that no longer fits.
     *
     * On a promotion the victim way the incoming line just vacated is
     * deliberately *not* excluded from re-insertion: Section IV.B.2
     * places the displaced base line anywhere it fits, and the freshly
     * freed slot is often the best (displace-nothing) candidate — the
     * default ECM policy prefers it.
     */
    void installBase(SetIdx set, WayIdx way, const CacheLine &incoming,
                     LlcResult &result);

    /**
     * Opportunistically place a base-eviction into the Victim Cache.
     * @return true if the line was parked (not dropped)
     */
    bool tryInsertVictim(SetIdx set, const CacheLine &line,
                         LlcResult &result);

    /**
     * Drop the victim line at (set, way), if valid. Silent in the
     * inclusive configuration (victims are clean); in non-inclusive
     * mode a dirty victim writes back through `result`.
     */
    void silentEvictVictim(SetIdx set, WayIdx way,
                           VictimEvictReason reason, LlcResult &result);

    /** Compressed size of `data` aligned to the segment quantum. */
    [[nodiscard]] SegCount quantizedSegments(
        const std::uint8_t *data) const;

    std::size_t sets_;
    std::size_t ways_;
    TagArray base_;   // SoA Baseline-Cache section
    TagArray victim_; // SoA Victim-Cache section
    std::unique_ptr<ReplacementPolicy> baseRepl_;
    std::unique_ptr<VictimReplacement> victimRepl_;
    /** Fitting ways of one victim insertion; reserved to ways_ once. */
    std::vector<VictimCandidate> candidates_;
    const Compressor &comp_;
    bool inclusive_;
    unsigned quantumSegments_; //!< segments per size-field step
};

} // namespace bvc

#endif // BVC_CORE_BASE_VICTIM_CACHE_HH_
