/**
 * @file
 * Deterministic pseudo-random replacement; the paper's illustrative
 * Victim-Cache policy in Section IV.B examples.
 */

#ifndef BVC_REPLACEMENT_RANDOM_REPL_HH_
#define BVC_REPLACEMENT_RANDOM_REPL_HH_

#include "replacement/replacement.hh"

#include "util/rng.hh"

namespace bvc
{

/** Random victim ranking from a seeded PRNG (reproducible). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::size_t sets, std::size_t ways,
                 // Fixes the whole decision stream: runs reproduce.
                 std::uint64_t seed = 0xb5c0ffee);

    void onFill(SetIdx, WayIdx) override {}
    void onHit(SetIdx, WayIdx) override {}
    void onInvalidate(SetIdx, WayIdx) override {}
    [[nodiscard]] std::vector<WayIdx> rank(SetIdx set) override;
    [[nodiscard]] WayIdx victim(SetIdx set) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;
    [[nodiscard]] std::string name() const override { return "Random"; }

  private:
    /** Draw a fresh permutation of the ways into order_. */
    void shuffle();

    Rng rng_;
    std::vector<WayIdx> order_; //!< scratch reused by every decision
};

} // namespace bvc

#endif // BVC_REPLACEMENT_RANDOM_REPL_HH_
