/**
 * @file
 * Static Re-Reference Interval Prediction (SRRIP) [Jaleel et al., ISCA
 * 2010], the first advanced Baseline-Cache policy studied in Section
 * VI.B.2. 2-bit re-reference prediction values: insert at "long"
 * (RRPV = 2), promote to "near-immediate" (0) on hit, evict RRPV = 3,
 * aging all lines when no way is at 3 (see rrip.hh).
 */

#ifndef BVC_REPLACEMENT_SRRIP_HH_
#define BVC_REPLACEMENT_SRRIP_HH_

#include "replacement/rrip.hh"

namespace bvc
{

/** SRRIP-HP with 2-bit RRPVs. */
class SrripPolicy : public RripPolicy
{
  public:
    /** Every fill predicts a "long" re-reference interval. */
    static constexpr unsigned kInsertRrpv = 2;

    SrripPolicy(std::size_t sets, std::size_t ways);

    void onFill(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::string name() const override { return "SRRIP"; }
};

} // namespace bvc

#endif // BVC_REPLACEMENT_SRRIP_HH_
