/**
 * @file
 * CHAR-inspired hierarchy-aware replacement [Chaudhuri et al., PACT
 * 2012], the second advanced policy of Section VI.B.2. Following the
 * paper's own configuration we implement it "with 1-bit ages and not on
 * top of SRRIP": an NRU-style age bit, set-dueling to learn whether the
 * workload reuses LLC lines after L2 eviction, and a downgrade hint
 * applied when the L2 evicts a line (marking it an eviction candidate)
 * whenever dueling has learned that such lines are dead.
 */

#ifndef BVC_REPLACEMENT_CHAR_POLICY_HH_
#define BVC_REPLACEMENT_CHAR_POLICY_HH_

#include "replacement/replacement.hh"

namespace bvc
{

/** Set-dueling, hint-driven 1-bit-age replacement. */
class CharPolicy : public ReplacementPolicy
{
  public:
    CharPolicy(std::size_t sets, std::size_t ways);

    void onFill(SetIdx set, WayIdx way) override;
    void onHit(SetIdx set, WayIdx way) override;
    void onInvalidate(SetIdx set, WayIdx way) override;
    void downgradeHint(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::vector<WayIdx> rank(SetIdx set) override;
    [[nodiscard]] WayIdx victim(SetIdx set) override;
    [[nodiscard]] std::vector<WayIdx>
    preferredVictims(SetIdx set) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;
    [[nodiscard]] std::string name() const override { return "CHAR"; }

    /** True if followers currently apply downgrade hints; test helper. */
    [[nodiscard]] bool hintsEnabled() const;

  private:
    enum class SetRole : std::uint8_t
    {
        Follower,
        LeaderHint,   //!< always applies downgrade hints
        LeaderNoHint, //!< never applies them
    };

    [[nodiscard]] SetRole role(SetIdx set) const;
    [[nodiscard]] bool applyHints(SetIdx set) const;
    void touch(SetIdx set, WayIdx way);
    /** Selector feedback when `front` is the chosen victim of `set`. */
    void noteVictim(SetIdx set, WayIdx front);

    static constexpr unsigned kDuelPeriod = 32;
    static constexpr int kPselMax = 1023;
    /** Hint-evidence margin before followers act on hints. */
    static constexpr int kEnableThreshold = 32;

    std::vector<std::uint8_t> bits_; // 1 = eviction candidate
    /**
     * Policy selector: incremented on hits to hinted-down lines in
     * LeaderHint sets (hinting lost useful lines), decremented on
     * LeaderNoHint-set evictions of never-rehit lines (hinting would
     * have freed space earlier). Positive -> hints hurt -> disable.
     */
    int psel_ = 0;
    std::vector<std::uint8_t> hinted_; // line was downgraded by a hint
};

} // namespace bvc

#endif // BVC_REPLACEMENT_CHAR_POLICY_HH_
