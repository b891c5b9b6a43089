/**
 * @file
 * Generic uncompressed set-associative writeback cache, used for the L1
 * instruction/data caches and the unified L2 (Section V configuration).
 * Inclusion with the LLC is enforced externally by the hierarchy through
 * invalidate().
 */

#ifndef BVC_CACHE_CACHE_HH_
#define BVC_CACHE_CACHE_HH_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_line.hh"
#include "cache/tag_array.hh"
#include "replacement/factory.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace bvc
{

/** A line evicted by a fill, reported to the caller for writeback. */
struct Eviction
{
    Addr addr = 0;      //!< block address of the evicted line
    bool dirty = false; //!< the line must be written back
};

/** Set-associative, write-allocate, writeback cache. */
class Cache
{
  public:
    /**
     * @param name       stats prefix, e.g. "l1d"
     * @param sizeBytes  total capacity; must be sets*ways*64
     * @param ways       associativity
     * @param repl       replacement policy kind
     * @param latency    load-to-use latency in cycles
     */
    Cache(std::string name, std::size_t sizeBytes, std::size_t ways,
          ReplacementKind repl, unsigned latency);

    /**
     * Look up `blk`; on a hit update replacement state, on a miss fill
     * the line (caller is responsible for fetching from the level below
     * first) and report any eviction.
     *
     * @param blk   block-aligned address
     * @param write true to mark the line dirty
     * @param[out] evicted the replaced line if the fill displaced one
     * @return true on hit
     */
    bool access(Addr blk, bool write, std::optional<Eviction> &evicted);

    /** Tag lookup with no state change. */
    [[nodiscard]] bool probe(Addr blk) const;

    /** True if the line is present and dirty (no state change). */
    [[nodiscard]] bool probeDirty(Addr blk) const;

    /**
     * Remove `blk` if present (back-invalidation from an inclusive LLC
     * or external snoop).
     * @return the line's dirtiness if it was present
     */
    std::optional<bool> invalidate(Addr blk);

    /**
     * Coherence downgrade (MSI M->S on a remote read): clear the dirty
     * bit but keep the line resident — the caller writes the data back
     * to the shared level when the prior dirtiness says so.
     * @return the line's prior dirtiness if it was present
     */
    std::optional<bool> downgrade(Addr blk);

    /** Invalidate every line (e.g., between benchmark phases). */
    void flush();

    [[nodiscard]] unsigned latency() const { return latency_; }
    [[nodiscard]] std::size_t numSets() const { return sets_; }
    [[nodiscard]] std::size_t numWays() const { return ways_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Set index for a block address (for tests). */
    [[nodiscard]] SetIdx setIndex(Addr blk) const;

    /** Visit every valid line (inclusion checks in tests). */
    void forEachLine(
        const std::function<void(const CacheLine &)> &fn) const;

  private:
    /** Probe for `blk`; the hot contiguous-tag scan. */
    [[nodiscard]] std::optional<WayIdx> findWay(Addr blk) const
    {
        return tags_.find(setIndex(blk), blk);
    }

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "accesses", "read_hits", "write_hits", "read_misses", "write_misses",
        "evictions", "dirty_evictions", "back_invalidations",
        "dirty_back_invalidations", "downgrades"};

    std::size_t sets_;
    std::size_t ways_;
    unsigned latency_;
    TagArray tags_; // SoA: contiguous tags + packed metadata
    std::unique_ptr<ReplacementPolicy> repl_;
    StatGroup stats_;
};

} // namespace bvc

#endif // BVC_CACHE_CACHE_HH_
