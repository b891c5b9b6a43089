/**
 * @file
 * The uncompressed baseline LLC every experiment normalizes against. Its
 * replacement decision procedure (invalid-way-first, then policy victim;
 * hit/fill/writeback update rules) is deliberately byte-for-byte the same
 * as the Baseline-Cache half of BaseVictimCache, because the paper's
 * central guarantee — the base content of the compressed cache mirrors
 * the uncompressed cache — is verified against this model in lockstep.
 */

#ifndef BVC_CORE_UNCOMPRESSED_LLC_HH_
#define BVC_CORE_UNCOMPRESSED_LLC_HH_

#include <memory>
#include <optional>

#include "cache/cache_line.hh"
#include "cache/tag_array.hh"
#include "core/llc_interface.hh"
#include "replacement/factory.hh"

namespace bvc
{

/** Plain set-associative inclusive LLC. */
class UncompressedLlc : public Llc
{
  public:
    /**
     * @param sizeBytes capacity (sets derived as size/64/ways)
     * @param ways      associativity
     * @param repl      baseline replacement policy kind
     */
    UncompressedLlc(std::size_t sizeBytes, std::size_t ways,
                    ReplacementKind repl);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    [[nodiscard]] bool probeBase(Addr blk) const override
    {
        return probe(blk);
    }
    void downgradeHint(Addr blk) override;
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;
    [[nodiscard]] std::string name() const override
    {
        return "Uncompressed";
    }

    [[nodiscard]] std::size_t numSets() const { return sets_; }
    [[nodiscard]] std::size_t numWays() const { return ways_; }

    /** Sorted valid block addresses of one set (mirror-invariant test). */
    [[nodiscard]] std::vector<Addr> setContents(SetIdx set) const;

    [[nodiscard]] SetIdx setIndex(Addr blk) const;

    /** Line at (set, way), including dirty state (lockstep check). */
    [[nodiscard]] CacheLine lineAt(SetIdx set, WayIdx way) const
    {
        return tags_.line(set, way);
    }

    /** Replacement-policy state words for `set` (lockstep check). */
    [[nodiscard]] std::vector<std::uint64_t>
    replStateSnapshot(SetIdx set) const
    {
        return repl_->stateSnapshot(set);
    }

  private:
    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "accesses", "demand_accesses", "writeback_hits", "demand_hits",
        "prefetch_hits", "demand_misses", "prefetch_misses", "evictions",
        "mem_writebacks", "back_invalidations", "fills",
        "coherence_invalidations"};

    [[nodiscard]] std::optional<WayIdx> findWay(SetIdx set,
                                                Addr blk) const
    {
        return tags_.find(set, blk);
    }

    std::size_t sets_;
    std::size_t ways_;
    TagArray tags_; // SoA: contiguous tags + packed metadata
    std::unique_ptr<ReplacementPolicy> repl_;
};

} // namespace bvc

#endif // BVC_CORE_UNCOMPRESSED_LLC_HH_
