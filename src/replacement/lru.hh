/**
 * @file
 * True least-recently-used replacement via per-line timestamps. Used in
 * the paper's motivating examples (Section III) and as a Baseline-Cache
 * policy option.
 */

#ifndef BVC_REPLACEMENT_LRU_HH_
#define BVC_REPLACEMENT_LRU_HH_

#include "replacement/replacement.hh"

#include "util/types.hh"

namespace bvc
{

/** Timestamp-based LRU. */
class LruPolicy : public ReplacementPolicy
{
  public:
    LruPolicy(std::size_t sets, std::size_t ways);

    void onFill(SetIdx set, WayIdx way) override;
    void onHit(SetIdx set, WayIdx way) override;
    void onInvalidate(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::vector<WayIdx> rank(SetIdx set) override;
    [[nodiscard]] WayIdx victim(SetIdx set) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;
    [[nodiscard]] std::string name() const override { return "LRU"; }

    /** Position of `way` in the LRU stack (0 = MRU); test helper. */
    [[nodiscard]] std::size_t
    stackPosition(SetIdx set, WayIdx way) const;

  private:
    Tick &stamp(SetIdx set, WayIdx way);
    const Tick &stamp(SetIdx set, WayIdx way) const;

    std::vector<Tick> stamps_;
    Tick tick_ = 0;
};

} // namespace bvc

#endif // BVC_REPLACEMENT_LRU_HH_
