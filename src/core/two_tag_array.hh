/**
 * @file
 * Shared machinery for the simple two-tags-per-physical-way compressed
 * LLC of Section III (Figure 1): 2x logical tags over an unmodified data
 * array, with one replacement policy spanning all logical tag slots.
 * Subclasses differ only in victim selection on a fill: TwoTagNaiveLlc
 * victimizes partners (Figure 6), TwoTagModifiedLlc searches the policy's
 * candidate class for a size-compatible victim, ECM-style (Figure 7).
 */

#ifndef BVC_CORE_TWO_TAG_ARRAY_HH_
#define BVC_CORE_TWO_TAG_ARRAY_HH_

#include <memory>
#include <optional>

#include "cache/cache_line.hh"
#include "cache/tag_array.hh"
#include "core/llc_interface.hh"
#include "replacement/factory.hh"

namespace bvc
{

/**
 * Base class for two-tag compressed LLCs. Logical slot numbering within
 * a set: slot = physicalWay * 2 + tagIndex; slots are the "ways" the
 * spanning replacement policy sees, so they use WayIdx. Two logical
 * lines sharing a physical way must satisfy
 * segments(a) + segments(b) <= 16.
 */
class TwoTagLlc : public Llc
{
  public:
    /**
     * @param sizeBytes *data array* capacity (same as the uncompressed
     *                  baseline it is compared against)
     * @param physWays  physical associativity (16 in the paper)
     * @param repl      replacement policy spanning the 2x logical slots
     * @param comp      compression algorithm (not owned)
     */
    TwoTagLlc(std::string statName, std::size_t sizeBytes,
              std::size_t physWays, ReplacementKind repl,
              const Compressor &comp);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    /**
     * The two-tag variants have no baseline/victim split: every resident
     * line is "base" content and may be held by the upper levels.
     */
    [[nodiscard]] bool probeBase(Addr blk) const override
    {
        return probe(blk);
    }
    void downgradeHint(Addr blk) override;
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;

    [[nodiscard]] std::size_t numSets() const { return sets_; }
    [[nodiscard]] std::size_t numPhysWays() const { return physWays_; }
    [[nodiscard]] SetIdx setIndex(Addr blk) const;

    /** Pair-fit invariant checker (used by tests). */
    [[nodiscard]] bool checkPairFit() const;

    /**
     * Structural invariants of one set: per-line segments <= 16,
     * partner pair-fit, no duplicate tags across the 2x logical slots.
     * Empty string when they hold, otherwise the first violation.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const;

  protected:
    [[nodiscard]] std::size_t numSlots() const { return physWays_ * 2; }

    /** Partner slot sharing the same physical way. */
    [[nodiscard]] static WayIdx partnerOf(WayIdx s)
    {
        return WayIdx{s.get() ^ 1};
    }

    /** Find the logical slot holding blk. */
    [[nodiscard]] std::optional<WayIdx> findSlot(SetIdx set,
                                                 Addr blk) const;

    /** True if a line of `segments` can live in slot `s` of `set`. */
    [[nodiscard]] bool fits(SetIdx set, WayIdx s,
                            SegCount segments) const;

    /**
     * Subclass hook: pick the victim slot for an incoming line of
     * `segments` segments. May return a slot whose partner does not fit
     * the incoming line; the caller then evicts the partner too.
     */
    [[nodiscard]] virtual WayIdx chooseVictimSlot(SetIdx set,
                                                  SegCount segments) = 0;

    /** Evict one slot: writeback accounting + back-invalidation. */
    void evictSlot(SetIdx set, WayIdx s, LlcResult &result);

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "accesses", "demand_accesses", "writeback_hits", "compressions",
        "decompressions", "demand_hits", "prefetch_hits", "demand_misses",
        "prefetch_misses", "fills", "evictions", "mem_writebacks",
        "back_invalidations", "partner_evictions_on_write",
        "partner_evictions_on_fill", "coherence_invalidations"};

    std::size_t sets_;
    std::size_t physWays_;
    TagArray tags_; // SoA: sets_ x (2*physWays_) logical slots
    std::unique_ptr<ReplacementPolicy> repl_;
    const Compressor &comp_;
};

/** Section III option 1: partner line victimization (Figure 6). */
class TwoTagNaiveLlc : public TwoTagLlc
{
  public:
    TwoTagNaiveLlc(std::size_t sizeBytes, std::size_t physWays,
                   ReplacementKind repl, const Compressor &comp);

    [[nodiscard]] std::string name() const override
    {
        return "TwoTagNaive";
    }

  protected:
    [[nodiscard]] WayIdx chooseVictimSlot(SetIdx set,
                                          SegCount segments) override;
};

/**
 * Section VI.A's modified policy: among the replacement policy's victim
 * candidates that do not require partner eviction, evict the one with the
 * largest compressed size (ECM-inspired [4]); fall back to partner
 * victimization when no candidate fits (Figure 7).
 */
class TwoTagModifiedLlc : public TwoTagLlc
{
  public:
    TwoTagModifiedLlc(std::size_t sizeBytes, std::size_t physWays,
                      ReplacementKind repl, const Compressor &comp);

    [[nodiscard]] std::string name() const override
    {
        return "TwoTagModified";
    }

  protected:
    [[nodiscard]] WayIdx chooseVictimSlot(SetIdx set,
                                          SegCount segments) override;
};

} // namespace bvc

#endif // BVC_CORE_TWO_TAG_ARRAY_HH_
