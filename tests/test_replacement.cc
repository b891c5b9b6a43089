/** @file Unit + property tests for all replacement policies. */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <tuple>

#include "replacement/char_policy.hh"
#include "replacement/drrip.hh"
#include "replacement/factory.hh"
#include "replacement/lru.hh"
#include "replacement/nru.hh"
#include "replacement/srrip.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

TEST(Lru, VictimIsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    for (const WayIdx w : indexRange<WayIdx>(4))
        lru.onFill(SetIdx{0}, w);
    lru.onHit(SetIdx{0}, WayIdx{0}); // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(lru.victim(SetIdx{0}), WayIdx{1});
    lru.onHit(SetIdx{0}, WayIdx{1});
    EXPECT_EQ(lru.victim(SetIdx{0}), WayIdx{2});
}

TEST(Lru, RankIsFullLruOrder)
{
    LruPolicy lru(1, 4);
    lru.onFill(SetIdx{0}, WayIdx{2});
    lru.onFill(SetIdx{0}, WayIdx{0});
    lru.onFill(SetIdx{0}, WayIdx{3});
    lru.onFill(SetIdx{0}, WayIdx{1});
    const auto order = lru.rank(SetIdx{0});
    EXPECT_EQ(order, (std::vector<WayIdx>{WayIdx{2}, WayIdx{0},
                                          WayIdx{3}, WayIdx{1}}));
}

TEST(Lru, StackPositionMatchesPaperExample)
{
    // Section III example: MRU line = stack position 0.
    LruPolicy lru(1, 8);
    for (const WayIdx w : indexRange<WayIdx>(8))
        lru.onFill(SetIdx{0}, w);
    EXPECT_EQ(lru.stackPosition(SetIdx{0}, WayIdx{7}), 0u); // most recent
    EXPECT_EQ(lru.stackPosition(SetIdx{0}, WayIdx{0}), 7u); // least
}

TEST(Lru, InvalidateMakesWayPreferredVictim)
{
    LruPolicy lru(1, 4);
    for (const WayIdx w : indexRange<WayIdx>(4))
        lru.onFill(SetIdx{0}, w);
    lru.onInvalidate(SetIdx{0}, WayIdx{3});
    EXPECT_EQ(lru.victim(SetIdx{0}), WayIdx{3});
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.onFill(SetIdx{0}, WayIdx{0});
    lru.onFill(SetIdx{0}, WayIdx{1});
    lru.onFill(SetIdx{1}, WayIdx{1});
    lru.onFill(SetIdx{1}, WayIdx{0});
    EXPECT_EQ(lru.victim(SetIdx{0}), WayIdx{0});
    EXPECT_EQ(lru.victim(SetIdx{1}), WayIdx{1});
}

TEST(Nru, FreshPolicyMarksAllCandidates)
{
    NruPolicy nru(1, 4);
    for (const WayIdx w : indexRange<WayIdx>(4))
        EXPECT_TRUE(nru.candidateBit(SetIdx{0}, w));
}

TEST(Nru, TouchClearsBit)
{
    NruPolicy nru(1, 4);
    nru.onFill(SetIdx{0}, WayIdx{2});
    EXPECT_FALSE(nru.candidateBit(SetIdx{0}, WayIdx{2}));
    EXPECT_TRUE(nru.candidateBit(SetIdx{0}, WayIdx{0}));
}

TEST(Nru, LastClearRemarksOthers)
{
    NruPolicy nru(1, 3);
    nru.onFill(SetIdx{0}, WayIdx{0});
    nru.onFill(SetIdx{0}, WayIdx{1});
    nru.onFill(SetIdx{0}, WayIdx{2}); // last candidate -> 0/1 re-marked
    EXPECT_TRUE(nru.candidateBit(SetIdx{0}, WayIdx{0}));
    EXPECT_TRUE(nru.candidateBit(SetIdx{0}, WayIdx{1}));
    EXPECT_FALSE(nru.candidateBit(SetIdx{0}, WayIdx{2}));
}

TEST(Nru, VictimIsFirstCandidate)
{
    NruPolicy nru(1, 4);
    nru.onFill(SetIdx{0}, WayIdx{0});
    nru.onFill(SetIdx{0}, WayIdx{1});
    EXPECT_EQ(nru.victim(SetIdx{0}), WayIdx{2});
}

TEST(Nru, PreferredVictimsAreExactlyCandidateBits)
{
    NruPolicy nru(1, 4);
    nru.onFill(SetIdx{0}, WayIdx{1});
    nru.onHit(SetIdx{0}, WayIdx{3});
    const auto candidates = nru.preferredVictims(SetIdx{0});
    EXPECT_EQ(candidates, (std::vector<WayIdx>{WayIdx{0}, WayIdx{2}}));
}

TEST(Srrip, InsertsAtLongInterval)
{
    SrripPolicy srrip(1, 4);
    srrip.onFill(SetIdx{0}, WayIdx{1});
    EXPECT_EQ(srrip.rrpv(SetIdx{0}, WayIdx{1}), SrripPolicy::kInsertRrpv);
}

TEST(Srrip, HitPromotesToZero)
{
    SrripPolicy srrip(1, 4);
    srrip.onFill(SetIdx{0}, WayIdx{1});
    srrip.onHit(SetIdx{0}, WayIdx{1});
    EXPECT_EQ(srrip.rrpv(SetIdx{0}, WayIdx{1}), 0u);
}

TEST(Srrip, AgingCreatesVictimWhenNoneDistant)
{
    SrripPolicy srrip(1, 2);
    srrip.onFill(SetIdx{0}, WayIdx{0});
    srrip.onFill(SetIdx{0}, WayIdx{1});
    srrip.onHit(SetIdx{0}, WayIdx{0}); // rrpv: 0, 2
    const auto order = srrip.rank(SetIdx{0});
    EXPECT_EQ(order.front(), WayIdx{1});
    // Aging raised way 1 to max while keeping relative order.
    EXPECT_EQ(srrip.rrpv(SetIdx{0}, WayIdx{1}), SrripPolicy::kMaxRrpv);
    EXPECT_EQ(srrip.rrpv(SetIdx{0}, WayIdx{0}), 1u);
}

TEST(Srrip, PreferredVictimsAreMaxRrpvOnly)
{
    SrripPolicy srrip(1, 4);
    for (const WayIdx w : indexRange<WayIdx>(4))
        srrip.onFill(SetIdx{0}, w);
    srrip.onHit(SetIdx{0}, WayIdx{2});
    const auto candidates = srrip.preferredVictims(SetIdx{0});
    // Fills sit at 2, aged to 3; way 2 at 0 aged to 1 -> not candidate.
    EXPECT_EQ(candidates.size(), 3u);
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                          WayIdx{2}) == candidates.end());
}

TEST(Char, DowngradeHintMarksLineInHintLeaderSets)
{
    CharPolicy policy(64, 4);
    // Set 0 is a LeaderHint set (set % 32 == 0).
    policy.onFill(SetIdx{0}, WayIdx{0});
    policy.onFill(SetIdx{0}, WayIdx{1});
    policy.onFill(SetIdx{0}, WayIdx{2});
    policy.downgradeHint(SetIdx{0}, WayIdx{1});
    const auto order = policy.rank(SetIdx{0});
    // Way 1 was downgraded: it must be in the candidate class.
    const auto candidates = policy.preferredVictims(SetIdx{0});
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                          WayIdx{1}) != candidates.end());
    (void)order;
}

TEST(Char, HintsStartDisabledUntilEvidence)
{
    CharPolicy policy(64, 4);
    EXPECT_FALSE(policy.hintsEnabled());
}

TEST(Char, DeadHintedLinesEnableHints)
{
    CharPolicy policy(64, 4);
    // Set 1 is the no-hint leader. Repeatedly: line filled, hinted,
    // then chosen as the natural NRU victim without a rehit — the
    // evidence that hints predict death correctly.
    for (int round = 0; round < 64; ++round) {
        for (const WayIdx w : indexRange<WayIdx>(4))
            policy.onFill(SetIdx{1}, w);
        policy.downgradeHint(SetIdx{1}, WayIdx{0});
        (void)policy.rank(SetIdx{1}); // victim scan sees the dead line
        policy.onInvalidate(SetIdx{1}, WayIdx{0});
    }
    EXPECT_TRUE(policy.hintsEnabled());
}

TEST(Char, RehitsOnHintedLinesDisableHints)
{
    CharPolicy policy(64, 16);
    // In the hint-leader set, repeatedly downgrade a line and rehit it:
    // evidence that hints evict useful lines.
    policy.onFill(SetIdx{0}, WayIdx{3});
    for (int i = 0; i < 10; ++i) {
        policy.downgradeHint(SetIdx{0}, WayIdx{3});
        policy.onHit(SetIdx{0}, WayIdx{3});
    }
    EXPECT_FALSE(policy.hintsEnabled());
}

TEST(Char, FollowerSetsIgnoreHintsWhenDisabled)
{
    CharPolicy policy(64, 4);
    // Disable hints via leader-set rehits.
    policy.onFill(SetIdx{0}, WayIdx{0});
    for (int i = 0; i < 10; ++i) {
        policy.downgradeHint(SetIdx{0}, WayIdx{0});
        policy.onHit(SetIdx{0}, WayIdx{0});
    }
    ASSERT_FALSE(policy.hintsEnabled());
    // Set 5 is a follower; hint should not mark the line now.
    policy.onFill(SetIdx{5}, WayIdx{2});
    policy.onFill(SetIdx{5}, WayIdx{3});
    policy.downgradeHint(SetIdx{5}, WayIdx{2});
    const auto candidates = policy.preferredVictims(SetIdx{5});
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                          WayIdx{2}) == candidates.end());
}

class ReplacementProperty
    : public ::testing::TestWithParam<ReplacementKind>
{
};

TEST_P(ReplacementProperty, RankIsAlwaysAPermutation)
{
    auto policy = makeReplacement(GetParam(), 4, 8);
    Rng rng(1);
    for (int step = 0; step < 2000; ++step) {
        const SetIdx set{rng.range(4)};
        const WayIdx way{rng.range(8)};
        switch (rng.range(4)) {
          case 0: policy->onFill(set, way); break;
          case 1: policy->onHit(set, way); break;
          case 2: policy->onInvalidate(set, way); break;
          default: {
            const auto order = policy->rank(set);
            std::set<WayIdx> unique(order.begin(), order.end());
            ASSERT_EQ(order.size(), 8u);
            ASSERT_EQ(unique.size(), 8u);
            ASSERT_TRUE(unique.rbegin()->get() < 8);
            break;
          }
        }
    }
}

TEST_P(ReplacementProperty, PreferredVictimsAreValidWays)
{
    auto policy = makeReplacement(GetParam(), 2, 8);
    Rng rng(2);
    for (int step = 0; step < 500; ++step) {
        const SetIdx set{rng.range(2)};
        policy->onFill(set, WayIdx{rng.range(8)});
        const auto candidates = policy->preferredVictims(set);
        ASSERT_FALSE(candidates.empty());
        for (const WayIdx way : candidates)
            ASSERT_LT(way.get(), 8u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplacementProperty,
    ::testing::ValuesIn(allReplacementKinds()),
    [](const ::testing::TestParamInfo<ReplacementKind> &info) {
        return replacementName(info.param);
    });

/**
 * victim() must be interchangeable with rank().front(), side effects
 * included. Two twins of one policy take the same random event stream;
 * at every decision twin A asks victim() and twin B rank().front().
 * Both must name the same way and then hold equal state in every set,
 * so a missed side effect (aging, selector feedback, PRNG draws) shows
 * up as a snapshot divergence even when the chosen way agrees.
 */
class VictimLockstep
    : public ::testing::TestWithParam<
          std::tuple<ReplacementKind, std::size_t>>
{
};

/**
 * The reference for preferredVictims(): RRIP's candidate class is the
 * max-RRPV prefix of rank(); policies without a class of their own
 * return rank().front(); NRU and CHAR answer from their own bits.
 */
std::vector<WayIdx>
referencePreferredVictims(ReplacementKind kind, ReplacementPolicy &policy,
                          SetIdx set)
{
    switch (kind) {
      case ReplacementKind::Srrip:
      case ReplacementKind::Drrip: {
        const auto order = policy.rank(set);
        const auto &rrip = dynamic_cast<const RripPolicy &>(policy);
        std::vector<WayIdx> prefix;
        for (const WayIdx w : order) {
            if (rrip.rrpv(set, w) != RripPolicy::kMaxRrpv)
                break;
            prefix.push_back(w);
        }
        return prefix;
      }
      case ReplacementKind::Lru:
      case ReplacementKind::Random:
        return {policy.rank(set).front()};
      case ReplacementKind::Nru:
      case ReplacementKind::Char:
        return policy.preferredVictims(set);
    }
    return {};
}

TEST_P(VictimLockstep, VictimEqualsRankFrontWithSameSideEffects)
{
    const auto [kind, ways] = GetParam();
    // Enough sets for both DRRIP and CHAR to have leader sets of each
    // kind (set % kDuelPeriod == 0 and == 1) plus followers.
    const std::size_t sets = 2 * DrripPolicy::kDuelPeriod;
    auto a = makeReplacement(kind, sets, ways);
    auto b = makeReplacement(kind, sets, ways);
    Rng rng(ways * 7919 + static_cast<std::uint64_t>(kind));
    // Most events land in two leader sets and a follower, so each
    // reaches deep aging and selector states; the rest go anywhere.
    const SetIdx hot[] = {SetIdx{0}, SetIdx{1}, SetIdx{5},
                          SetIdx{DrripPolicy::kDuelPeriod + 1}};

    for (int step = 0; step < 6000; ++step) {
        const SetIdx set = rng.range(10) < 7
            ? hot[rng.range(std::size(hot))]
            : SetIdx{rng.range(sets)};
        const WayIdx way{rng.range(ways)};
        switch (rng.range(7)) {
          case 0:
            a->onFill(set, way);
            b->onFill(set, way);
            break;
          case 1:
          case 2:
            a->onHit(set, way);
            b->onHit(set, way);
            break;
          case 3:
            a->onInvalidate(set, way);
            b->onInvalidate(set, way);
            break;
          case 4:
            a->downgradeHint(set, way);
            b->downgradeHint(set, way);
            break;
          case 5: {
            // A miss: decide, then fill the chosen way.
            const WayIdx chosen = a->victim(set);
            ASSERT_EQ(chosen, b->rank(set).front()) << "step " << step;
            a->onFill(set, chosen);
            b->onFill(set, chosen);
            break;
          }
          default:
            ASSERT_EQ(a->preferredVictims(set),
                      referencePreferredVictims(kind, *b, set))
                << "step " << step;
            break;
        }
        for (const SetIdx s : indexRange<SetIdx>(sets))
            ASSERT_EQ(a->stateSnapshot(s), b->stateSnapshot(s))
                << "step " << step << ", set " << s.get();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndWays, VictimLockstep,
    ::testing::Combine(::testing::ValuesIn(allReplacementKinds()),
                       ::testing::Values(1, 4, 16, 32)),
    [](const ::testing::TestParamInfo<VictimLockstep::ParamType> &info) {
        return replacementName(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "way";
    });

TEST(ReplacementFactory, NamesRoundTrip)
{
    for (const auto kind : allReplacementKinds()) {
        const auto policy = makeReplacement(kind, 2, 2);
        EXPECT_EQ(policy->name(), replacementName(kind));
        EXPECT_EQ(policy->sets(), 2u);
        EXPECT_EQ(policy->ways(), 2u);
    }
}

} // namespace
} // namespace bvc
