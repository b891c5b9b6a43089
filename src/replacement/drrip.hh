/**
 * @file
 * Dynamic Re-Reference Interval Prediction (DRRIP) [Jaleel et al.,
 * ISCA 2010]: set-dueling between SRRIP insertion (RRPV = long) and
 * BRRIP insertion (RRPV = distant, with a low-probability long insert),
 * selecting per-workload whichever policy misses less. An optional
 * extension beyond the paper's evaluated policies — the Base-Victim
 * architecture composes with it unchanged, which the Figure 10 bench
 * demonstrates. Aging and victim selection are SRRIP's (rrip.hh).
 */

#ifndef BVC_REPLACEMENT_DRRIP_HH_
#define BVC_REPLACEMENT_DRRIP_HH_

#include "replacement/rrip.hh"

namespace bvc
{

/** DRRIP with 2-bit RRPVs and 10-bit policy selector. */
class DrripPolicy : public RripPolicy
{
  public:
    /** SRRIP's "long" insertion RRPV. */
    static constexpr unsigned kSrripInsert = 2;
    /** BRRIP inserts at kSrripInsert once every kBimodalPeriod fills. */
    static constexpr unsigned kBimodalPeriod = 32;
    /** One SRRIP and one BRRIP leader set in every kDuelPeriod sets. */
    static constexpr unsigned kDuelPeriod = 32;
    /** Saturation bound of the policy selector, either sign. */
    static constexpr int kPselMax = 511;

    DrripPolicy(std::size_t sets, std::size_t ways);

    void onFill(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;
    [[nodiscard]] std::string name() const override { return "DRRIP"; }

    /** True if follower sets currently insert BRRIP-style. */
    [[nodiscard]] bool brripSelected() const { return psel_ > 0; }

  private:
    enum class SetRole : std::uint8_t
    {
        Follower,
        LeaderSrrip,
        LeaderBrrip,
    };

    [[nodiscard]] SetRole role(SetIdx set) const;
    bool insertBrrip(SetIdx set);

    int psel_ = 0; //!< >0: SRRIP leaders miss more -> use BRRIP
    unsigned bimodalCounter_ = 0;
};

} // namespace bvc

#endif // BVC_REPLACEMENT_DRRIP_HH_
