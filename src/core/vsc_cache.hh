/**
 * @file
 * Functional model of the Decoupled Variable-Segment Cache (VSC-2X)
 * [Alameldeen & Wood, ISCA 2004], used only for the effective-capacity
 * comparison in Section V: "when simulated on functional cache models,
 * these policies come close to an 80% increase in cache capacity."
 *
 * The model decouples tags from data: each set has 2x tags and a pool of
 * 16 x 16 data segments; compressed lines occupy their exact segment
 * count and the set is assumed perfectly compactable (free
 * defragmentation). On a fill, lines are evicted in LRU order until the
 * incoming line fits — potentially several per fill, which is exactly
 * the replacement-complexity drawback the paper describes. No timing is
 * modelled; the paper itself declines to compare IPC against VSC because
 * of its data-array overheads.
 */

#ifndef BVC_CORE_VSC_CACHE_HH_
#define BVC_CORE_VSC_CACHE_HH_

#include <memory>
#include <optional>

#include "cache/cache_line.hh"
#include "cache/tag_array.hh"
#include "core/llc_interface.hh"
#include "replacement/lru.hh"

namespace bvc
{

/** Functional VSC-2X capacity model. */
class VscLlc : public Llc
{
  public:
    /**
     * @param sizeBytes data capacity (same array as the baseline)
     * @param physWays  physical ways per set; tags are doubled
     * @param comp      compression algorithm (not owned)
     */
    VscLlc(std::size_t sizeBytes, std::size_t physWays,
           const Compressor &comp);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    [[nodiscard]] bool probeBase(Addr blk) const override
    {
        return probe(blk);
    }
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;
    [[nodiscard]] std::string name() const override { return "VSC-2X"; }

    /** Lines evicted by the most recent fill (replacement complexity). */
    [[nodiscard]] unsigned lastFillEvictions() const
    {
        return lastFillEvictions_;
    }

    [[nodiscard]] std::size_t numSets() const { return sets_; }
    [[nodiscard]] SetIdx setIndex(Addr blk) const;

    /** Total segments used in a set (must be <= ways*16). */
    [[nodiscard]] SegCount usedSegments(SetIdx set) const;

    /**
     * Structural invariants of one set: segment pool within the
     * physWays*16 budget, per-line segments <= 16, no duplicate tags.
     * Empty string when they hold, otherwise the first violation.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const;

  private:
    [[nodiscard]] std::optional<WayIdx> findSlot(SetIdx set,
                                                 Addr blk) const;

    /** Evict the line in `victim`, with writeback accounting. */
    void evictSlot(SetIdx set, WayIdx victim, LlcResult &result);

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "accesses", "demand_accesses", "writeback_hits", "demand_hits",
        "prefetch_hits", "demand_misses", "prefetch_misses", "fills",
        "evictions", "mem_writebacks", "recompactions", "fill_evictions",
        "multi_evict_fills", "coherence_invalidations"};

    std::size_t sets_;
    std::size_t physWays_;
    std::size_t tagsPerSet_;
    TagArray tags_; // SoA: sets_ x (2*physWays_) decoupled tag slots
    std::unique_ptr<LruPolicy> repl_;
    const Compressor &comp_;
    unsigned lastFillEvictions_ = 0;
};

} // namespace bvc

#endif // BVC_CORE_VSC_CACHE_HH_
