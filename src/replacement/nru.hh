/**
 * @file
 * 1-bit Not-Recently-Used replacement [14], the paper's default LLC
 * policy (Section V). Each line has one reference bit: cleared on
 * hit/fill; a set bit marks an eviction candidate. When clearing the last
 * set bit, all other ways are re-marked.
 */

#ifndef BVC_REPLACEMENT_NRU_HH_
#define BVC_REPLACEMENT_NRU_HH_

#include "replacement/replacement.hh"

namespace bvc
{

/** 1-bit NRU. Bit set == "not recently used" == victim candidate. */
class NruPolicy : public ReplacementPolicy
{
  public:
    NruPolicy(std::size_t sets, std::size_t ways);

    void onFill(SetIdx set, WayIdx way) override;
    void onHit(SetIdx set, WayIdx way) override;
    void onInvalidate(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::vector<WayIdx> rank(SetIdx set) override;
    [[nodiscard]] WayIdx victim(SetIdx set) override;
    [[nodiscard]] std::vector<WayIdx>
    preferredVictims(SetIdx set) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;
    [[nodiscard]] std::string name() const override { return "NRU"; }

    /** Raw candidate bit; test helper. */
    [[nodiscard]] bool candidateBit(SetIdx set, WayIdx way) const;

  private:
    void touch(SetIdx set, WayIdx way);

    std::vector<std::uint8_t> bits_; // 1 = eviction candidate
};

} // namespace bvc

#endif // BVC_REPLACEMENT_NRU_HH_
