/**
 * @file
 * Replacement-policy interface shared by every cache model. A policy owns
 * per-(set, way) age state for a cache of fixed geometry and exposes a
 * victim *ranking* as well as a single victim: the compressed-cache
 * models (Section III / VI.B of the paper) need to walk candidates in
 * policy-preference order and filter them by compressed-size fit, which a
 * single-victim interface cannot express, while every other replacement
 * decision only needs the front of that ranking (victim()).
 *
 * Sets and ways are addressed with the strong index types of
 * util/strong_types.hh: passing a set where a way is expected (or vice
 * versa) is a compile error.
 */

#ifndef BVC_REPLACEMENT_REPLACEMENT_HH_
#define BVC_REPLACEMENT_REPLACEMENT_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/strong_types.hh"

namespace bvc
{

/**
 * Abstract replacement policy over a (sets x ways) tag array. "Way" here
 * means a logical tag slot: the two-tag compressed caches instantiate a
 * policy over 2x the physical associativity.
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways)
    {
    }

    virtual ~ReplacementPolicy() = default;

    /** A new line was installed in (set, way). */
    virtual void onFill(SetIdx set, WayIdx way) = 0;

    /** The line in (set, way) was hit by a demand access. */
    virtual void onHit(SetIdx set, WayIdx way) = 0;

    /** The line in (set, way) was invalidated (state becomes don't-care). */
    virtual void onInvalidate(SetIdx set, WayIdx way) = 0;

    /**
     * Optional hierarchy hint (CHAR-style, [7]): the upper-level cache
     * evicted its copy of the line at (set, way), suggesting reduced
     * future reuse. Default: ignored.
     */
    virtual void downgradeHint(SetIdx, WayIdx) {}

    /**
     * All ways of `set` ordered best-victim-first. May mutate aging state
     * (e.g., SRRIP increments RRPVs until a victim exists), so callers
     * must only invoke this when a replacement decision is actually due.
     */
    [[nodiscard]] virtual std::vector<WayIdx> rank(SetIdx set) = 0;

    /**
     * The policy's current victim-candidate *class* for `set`: the ways
     * the policy considers equally evictable right now (e.g., all
     * NRU-bit-set ways, all RRPV==3 ways). The two-tag modified
     * replacement of Section VI.A filters this class by compressed-size
     * fit. Default: just the single best victim.
     */
    [[nodiscard]] virtual std::vector<WayIdx>
    preferredVictims(SetIdx set)
    {
        return {victim(set)};
    }

    /**
     * The single preferred victim of `set`: exactly `rank(set).front()`,
     * with exactly the side effects rank() has (aging, selector
     * feedback, PRNG draws), so the two are interchangeable at any point
     * of a call sequence. Every cache calls this on every miss, so an
     * override must not allocate: it answers the decision directly
     * instead of building the ranking.
     */
    [[nodiscard]] virtual WayIdx victim(SetIdx set) = 0;

    /**
     * Every word of decision-relevant aging state for `set`, plus any
     * global state (selector counters, PRNG words) that influences
     * future decisions. Two policy instances fed identical call
     * sequences must produce equal snapshots — the lockstep shadow
     * checker (src/check/) compares the Baseline-Cache policy against
     * the uncompressed reference with this. Must NOT mutate state
     * (unlike rank()).
     */
    [[nodiscard]] virtual std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const = 0;

    [[nodiscard]] virtual std::string name() const = 0;

    [[nodiscard]] std::size_t sets() const { return sets_; }
    [[nodiscard]] std::size_t ways() const { return ways_; }

  protected:
    /** Row-major flat index into per-line state vectors. */
    [[nodiscard]] std::size_t idx(SetIdx set, WayIdx way) const
    {
        return set.get() * ways_ + way.get();
    }

    std::size_t sets_;
    std::size_t ways_;
};

} // namespace bvc

#endif // BVC_REPLACEMENT_REPLACEMENT_HH_
