/**
 * @file
 * Re-Reference Interval Prediction state shared by SRRIP and DRRIP
 * [Jaleel et al., ISCA 2010]: a 2-bit RRPV per line, promoted to
 * "near-immediate" (0) on a hit, with victims taken from the
 * "distant" (kMaxRrpv) class after aging the set until that class is
 * non-empty. The two policies differ only in the RRPV a fill inserts.
 */

#ifndef BVC_REPLACEMENT_RRIP_HH_
#define BVC_REPLACEMENT_RRIP_HH_

#include "replacement/replacement.hh"

namespace bvc
{

/** 2-bit RRPV bookkeeping and victim selection; insertion is abstract. */
class RripPolicy : public ReplacementPolicy
{
  public:
    /** Distant re-reference: the RRPV of the eviction class. */
    static constexpr unsigned kMaxRrpv = 3;

    void onHit(SetIdx set, WayIdx way) override;
    void onInvalidate(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::vector<WayIdx> rank(SetIdx set) override;
    [[nodiscard]] WayIdx victim(SetIdx set) override;
    [[nodiscard]] std::vector<WayIdx>
    preferredVictims(SetIdx set) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;

    /** Raw RRPV; test helper. */
    [[nodiscard]] unsigned rrpv(SetIdx set, WayIdx way) const;

  protected:
    RripPolicy(std::size_t sets, std::size_t ways);

    /** Give the line just filled into (set, way) its insertion RRPV. */
    void insert(SetIdx set, WayIdx way, unsigned rrpv);

  private:
    /**
     * Age `set` until at least one way sits at kMaxRrpv, keeping the
     * ways' relative order; returns the set's RRPV row. Every
     * replacement decision (rank, victim, preferredVictims) starts here.
     */
    const std::uint8_t *age(SetIdx set);

    std::vector<std::uint8_t> rrpvs_;
};

} // namespace bvc

#endif // BVC_REPLACEMENT_RRIP_HH_
