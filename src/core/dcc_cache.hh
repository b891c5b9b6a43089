/**
 * @file
 * Functional capacity model of the Decoupled Compressed Cache (DCC)
 * [Sardashti & Wood, MICRO 2013], the second prior architecture the
 * paper positions against (Section II). DCC tracks *super-blocks* of
 * four aligned lines under one tag and allocates compressed sub-blocks
 * from a decoupled segment pool, eliminating VSC's re-compaction at
 * the price of indirection. Like the VSC model, this is functional
 * only — the paper argues (Section V) that DCC's data-array changes
 * make an IPC comparison against the unmodified-array two-tag designs
 * unfair, so it reports capacity, not cycles.
 */

#ifndef BVC_CORE_DCC_CACHE_HH_
#define BVC_CORE_DCC_CACHE_HH_

#include <memory>
#include <optional>

#include "cache/tag_array.hh"
#include "core/llc_interface.hh"
#include "replacement/lru.hh"

namespace bvc
{

/** Functional DCC capacity model with 4-line super-blocks. */
class DccLlc : public Llc
{
  public:
    /** Lines per super-block (DCC's default). */
    static constexpr unsigned kSubBlocks = 4;

    /**
     * @param sizeBytes data capacity (the unmodified baseline array)
     * @param physWays  physical ways; the set holds physWays
     *                  super-block tags over physWays*16 segments
     * @param comp      compression algorithm (not owned)
     */
    DccLlc(std::size_t sizeBytes, std::size_t physWays,
           const Compressor &comp);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    [[nodiscard]] bool probeBase(Addr blk) const override
    {
        return probe(blk);
    }
    /**
     * Snoop invalidation at line granularity: clears only the one
     * sub-block's presence; the super-block tag is freed when its last
     * sub-block goes.
     */
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;
    [[nodiscard]] std::string name() const override { return "DCC"; }

    [[nodiscard]] std::size_t numSets() const { return sets_; }
    /** Segments used in one set (must stay within the pool). */
    [[nodiscard]] SegCount usedSegments(SetIdx set) const;
    /** Set index for a block address (tests). */
    [[nodiscard]] SetIdx setIndex(Addr blk) const;

    /**
     * Structural invariants of one set: segment pool within the
     * physWays*16 budget, per-sub-block segments <= 16, no duplicate
     * super-block tags, presence bits only under valid tags. Empty
     * string when they hold, otherwise the first violation.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const;

  private:
    /**
     * Sentinel stored in tags_ for an invalid super-block slot. Real
     * super-block tags are 256B-aligned addresses and can never equal
     * it, so findWay scans the contiguous tag row with no valid bit.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    [[nodiscard]] std::size_t tagIndex(SetIdx set, WayIdx way) const
    {
        return set.get() * physWays_ + way.get();
    }

    [[nodiscard]] std::size_t metaIndex(SetIdx set, WayIdx way,
                                        unsigned sub) const
    {
        return tagIndex(set, way) * kSubBlocks + sub;
    }

    [[nodiscard]] bool sbValid(SetIdx set, WayIdx way) const
    {
        return tags_[tagIndex(set, way)] != kInvalidTag;
    }

    [[nodiscard]] Addr sbTag(SetIdx set, WayIdx way) const
    {
        return tags_[tagIndex(set, way)];
    }

    [[nodiscard]] bool present(SetIdx set, WayIdx way,
                               unsigned sub) const
    {
        return linemeta::valid(subMeta_[metaIndex(set, way, sub)]);
    }

    [[nodiscard]] bool subDirty(SetIdx set, WayIdx way,
                                unsigned sub) const
    {
        return linemeta::dirty(subMeta_[metaIndex(set, way, sub)]);
    }

    [[nodiscard]] SegCount subSegments(SetIdx set, WayIdx way,
                                       unsigned sub) const
    {
        return linemeta::segments(subMeta_[metaIndex(set, way, sub)]);
    }

    void setSubMeta(SetIdx set, WayIdx way, unsigned sub,
                    bool isPresent, bool isDirty, SegCount segments)
    {
        subMeta_[metaIndex(set, way, sub)] =
            linemeta::pack(isPresent, isDirty, segments);
    }

    /** Clear one super-block slot: sentinel tag, all sub-meta zero. */
    void clearSuperBlock(SetIdx set, WayIdx way)
    {
        tags_[tagIndex(set, way)] = kInvalidTag;
        for (unsigned s = 0; s < kSubBlocks; ++s)
            subMeta_[metaIndex(set, way, s)] = 0;
    }

    [[nodiscard]] static Addr superTag(Addr blk);
    [[nodiscard]] static unsigned subIndex(Addr blk);

    [[nodiscard]] std::optional<WayIdx> findWay(SetIdx set,
                                                Addr blk) const;

    /** Drop one whole super-block (LRU), reporting its sub-blocks. */
    void evictSuperBlock(SetIdx set, WayIdx way, LlcResult &result);

    /** Free segments/tags until `segments` more fit; LRU order. */
    void makeRoom(SetIdx set, SegCount segments, bool needTag,
                  LlcResult &result);

    /** First invalid super-block tag of `set`, if any. */
    [[nodiscard]] std::optional<WayIdx> freeWay(SetIdx set) const;

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "accesses", "demand_accesses", "writeback_hits", "demand_hits",
        "prefetch_hits", "demand_misses", "prefetch_misses", "fills",
        "evictions", "mem_writebacks", "back_invalidations",
        "superblock_evictions", "superblock_fills",
        "coherence_invalidations"};

    std::size_t sets_;
    std::size_t physWays_;
    std::vector<Addr> tags_;            // SoA: super-block tags
    std::vector<std::uint8_t> subMeta_; // packed per-sub-block metadata
    std::unique_ptr<LruPolicy> repl_;   //!< super-block granularity
    const Compressor &comp_;
};

} // namespace bvc

#endif // BVC_CORE_DCC_CACHE_HH_
