/**
 * @file
 * Common interface for every last-level-cache organization studied in the
 * paper: the uncompressed baseline, the two simple two-tag compressed
 * variants of Section III/VI.A, and the Base-Victim architecture of
 * Section IV. The cache hierarchy drives all of them identically.
 *
 * LLC access types (inclusive hierarchy, Section IV.B):
 *   Read      demand fetch from the L2 (loads, ifetches and RFOs)
 *   Prefetch  hardware prefetch fill request
 *   Writeback dirty eviction arriving from the L2
 */

#ifndef BVC_CORE_LLC_INTERFACE_HH_
#define BVC_CORE_LLC_INTERFACE_HH_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.hh"
#include "util/stats.hh"
#include "util/strong_types.hh"
#include "util/types.hh"

namespace bvc
{

/** Outcome of one LLC access, consumed by the hierarchy model. */
struct LlcResult
{
    /** Line was found (in any section of the cache). */
    bool hit = false;
    /** Hit was served by the Victim Cache section (Base-Victim only). */
    bool victimHit = false;
    /**
     * Latency beyond the baseline LLC load-to-use latency: +1 cycle tag
     * lookup for doubled tags, +2 cycles decompression for lines that
     * are neither zero nor uncompressed (Section V).
     */
    unsigned extraLatency = 0;
    /**
     * Block addresses of dirty lines written back to memory by this
     * access. Base-Victim performs at most one per fill by construction;
     * the naive two-tag scheme can produce two (both partners dirty).
     */
    std::vector<Addr> memWritebacks;
    /**
     * Block addresses whose upper-level (L1/L2) copies must be
     * invalidated to preserve inclusion: every line removed from the
     * baseline content, including lines migrated into the Victim Cache.
     */
    std::vector<Addr> backInvalidations;
};

/** Abstract LLC. Fill-on-miss happens inside access(). */
class Llc
{
  public:
    /**
     * @param statName prefix of the counter group's dump lines
     * @param names    the model's counter names (a wrapper that exposes
     *                 another model's counters keeps none of its own)
     */
    explicit Llc(std::string statName,
                 std::span<const char *const> names = {})
        : stats_(std::move(statName), names)
    {
    }
    virtual ~Llc() = default;

    /**
     * Perform one access, updating all internal state (including the
     * fill on a miss).
     *
     * @param blk  block-aligned address
     * @param type Read, Prefetch or Writeback (see file comment)
     * @param data current 64B content of the line (from functional
     *             memory), used to compute compressed sizes on fills
     *             and writebacks
     */
    virtual LlcResult access(Addr blk, AccessType type,
                             const std::uint8_t *data) = 0;

    /** True if any copy of `blk` is present (base or victim section). */
    [[nodiscard]] virtual bool probe(Addr blk) const = 0;

    /**
     * True if `blk` is present in the baseline content, i.e., would be
     * present in an uncompressed cache. Upper levels may only hold
     * lines for which this is true (inclusion).
     */
    [[nodiscard]] virtual bool probeBase(Addr blk) const = 0;

    /** CHAR-style downgrade hint from an L2 eviction; default ignored. */
    virtual void downgradeHint(Addr) {}

    /**
     * Coherence (snoop) invalidation: remove every copy of `blk` from
     * the cache — base and victim sections alike. Used by the MSI/MESI
     * layer (src/coherence/) for external-agent writes and by the
     * differential fuzzer. The result carries a memory writeback if a
     * dirty copy was dropped and a back-invalidation if the block was
     * baseline content (upper levels may hold copies only of baseline
     * content). A miss is a no-op with an empty result.
     */
    virtual LlcResult coherenceInvalidate(Addr blk) = 0;

    /**
     * Reset every statistics counter. Virtual so composite caches (the
     * banked LLC) can reset their per-bank groups too; callers must use
     * this instead of stats().resetAll() at measurement boundaries.
     */
    virtual void resetStats() { stats_.resetAll(); }

    /** Count of valid logical lines (capacity studies). */
    [[nodiscard]] virtual std::size_t validLines() const = 0;

    /** Human-readable architecture name. */
    [[nodiscard]] virtual std::string name() const = 0;

    /**
     * Virtual so that wrappers (the lockstep ShadowChecker in
     * src/check/) can expose the wrapped model's counters: snapshots
     * and energy accounting must read identical numbers whether or not
     * checking is enabled.
     */
    virtual StatGroup &stats() { return stats_; }
    virtual const StatGroup &stats() const { return stats_; }

  protected:
    StatGroup stats_;
};

/**
 * Compressed size of a line in segments, with the zero-line special case
 * (tag-only storage, size field 0): see Section V, "Zero blocks and
 * uncompressed blocks can be detected from the data size field".
 */
[[nodiscard]] inline SegCount
compressedSegmentsFor(const Compressor &comp, const std::uint8_t *data)
{
    bool zero = true;
    for (std::size_t i = 0; i < kLineBytes && zero; ++i)
        zero = data[i] == 0;
    if (zero)
        return kZeroLineSegments;
    // Size-only fast path: the models never consume the payload.
    return SegCount{bytesToSegments(comp.compressedBytes(data))};
}

/** Decompression cycles implied by a stored segment count. */
[[nodiscard]] inline unsigned
decompressLatencyFor(const Compressor &comp, SegCount segments)
{
    return comp.decompressionCycles(segments.get());
}

/**
 * True if a stored size implies a real decompression on a read hit:
 * zero lines and verbatim (full-size) lines skip the decompressor
 * (Section V).
 */
[[nodiscard]] inline bool
needsDecompression(SegCount segments)
{
    return !segments.isZero() && segments < kFullLineSegments;
}

} // namespace bvc

#endif // BVC_CORE_LLC_INTERFACE_HH_
