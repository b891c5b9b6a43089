/**
 * @file
 * Tests for the coherent many-core layer: the MSI/MESI directory
 * (src/coherence/), the per-model coherenceInvalidate snoop path, the
 * banked LLC's content/stats transparency, and the acceptance
 * assertion that Base-Victim's per-core hit rate never drops below the
 * uncompressed baseline under coherence invalidations.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "check/shadow_checker.hh"
#include "coherence/coherence.hh"
#include "compress/factory.hh"
#include "core/banked_llc.hh"
#include "core/base_victim_cache.hh"
#include "core/dcc_cache.hh"
#include "core/two_tag_array.hh"
#include "core/uncompressed_llc.hh"
#include "core/vsc_cache.hh"
#include "sim/system.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

constexpr std::size_t kWays = 8;
constexpr std::size_t kSets = 16;
constexpr std::size_t kBytes = kSets * kWays * kLineBytes;

/** A block address landing in set 0 of the small test geometry. */
Addr
set0Blk(std::uint64_t i)
{
    return static_cast<Addr>(i) * kSets * kLineBytes;
}

// ---------------------------------------------------------------------
// CoherenceDirectory protocol transitions
// ---------------------------------------------------------------------

TEST(CoherenceDirectory, MsiReadersShareThenWriterInvalidates)
{
    CoherenceDirectory dir(CoherenceKind::Msi, 4);
    const Addr blk = 0x1000;

    CoherenceAction a = dir.onRead(CoreId{0}, blk);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(a.downgrade, 0u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Shared);

    dir.onRead(CoreId{1}, blk);
    EXPECT_EQ(dir.sharers(blk), 0b011u);

    // Core 2 writes: both readers' copies must drop; writer owns it.
    a = dir.onWrite(CoreId{2}, blk);
    EXPECT_EQ(a.invalidate, 0b011u);
    EXPECT_EQ(a.downgrade, 0u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Modified);
    EXPECT_EQ(dir.sharers(blk), 0b100u);
    EXPECT_EQ(dir.stats().get("invalidations_sent"), 2u);
}

TEST(CoherenceDirectory, MsiRemoteReadDowngradesModifiedOwner)
{
    CoherenceDirectory dir(CoherenceKind::Msi, 2);
    const Addr blk = 0x2000;

    dir.onWrite(CoreId{0}, blk);
    const CoherenceAction a = dir.onRead(CoreId{1}, blk);
    // The owner's dirty copy must flush but may stay resident Shared.
    EXPECT_EQ(a.downgrade, 0b01u);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Shared);
    EXPECT_EQ(dir.sharers(blk), 0b11u);
    EXPECT_EQ(dir.stats().get("downgrades_sent"), 1u);
}

TEST(CoherenceDirectory, MsiOwnerRereadAndRewriteAreSilent)
{
    CoherenceDirectory dir(CoherenceKind::Msi, 2);
    const Addr blk = 0x3000;

    dir.onWrite(CoreId{0}, blk);
    CoherenceAction a = dir.onRead(CoreId{0}, blk);
    EXPECT_EQ(a.invalidate | a.downgrade, 0u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Modified);

    a = dir.onWrite(CoreId{0}, blk);
    EXPECT_EQ(a.invalidate | a.downgrade, 0u);
    EXPECT_EQ(dir.stats().get("invalidations_sent"), 0u);
}

TEST(CoherenceDirectory, MsiSharedToModifiedCountsUpgrade)
{
    CoherenceDirectory dir(CoherenceKind::Msi, 2);
    const Addr blk = 0x4000;
    dir.onRead(CoreId{0}, blk);
    dir.onWrite(CoreId{0}, blk); // S -> M with no other sharers
    EXPECT_EQ(dir.stats().get("upgrades"), 1u);
    EXPECT_EQ(dir.stats().get("invalidations_sent"), 0u);
}

TEST(CoherenceDirectory, MesiGrantsExclusiveAndUpgradesSilently)
{
    CoherenceDirectory dir(CoherenceKind::Mesi, 4);
    const Addr blk = 0x5000;

    dir.onRead(CoreId{1}, blk);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Exclusive);
    EXPECT_EQ(dir.stats().get("exclusive_grants"), 1u);

    // The MESI payoff: E -> M by the owner needs no traffic.
    const CoherenceAction a = dir.onWrite(CoreId{1}, blk);
    EXPECT_EQ(a.invalidate | a.downgrade, 0u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Modified);
    EXPECT_EQ(dir.stats().get("silent_upgrades"), 1u);

    // A second reader ends exclusivity: the owner must flush.
    const CoherenceAction b = dir.onRead(CoreId{2}, blk);
    EXPECT_EQ(b.downgrade, 0b0010u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Shared);
}

TEST(CoherenceDirectory, LlcEvictionReturnsAndForgetsSharers)
{
    CoherenceDirectory dir(CoherenceKind::Msi, 8);
    const Addr blk = 0x6000;
    dir.onRead(CoreId{3}, blk);
    dir.onRead(CoreId{5}, blk);
    EXPECT_EQ(dir.onLlcEviction(blk), (1u << 3) | (1u << 5));
    EXPECT_EQ(dir.sharers(blk), 0u);
    EXPECT_EQ(dir.state(blk), CoherenceDirectory::State::Invalid);
    // A second eviction of a forgotten block is a no-op mask.
    EXPECT_EQ(dir.onLlcEviction(blk), 0u);
}

TEST(CoherenceDirectory, SharersAreStickyAcrossSilentEvictions)
{
    // The directory never learns about silent private evictions: the
    // sharer mask is a superset and only invalidations/evictions clear
    // it. Re-reading after a (simulated) silent drop must not grow the
    // mask beyond the one bit.
    CoherenceDirectory dir(CoherenceKind::Msi, 2);
    const Addr blk = 0x7000;
    dir.onRead(CoreId{0}, blk);
    dir.onRead(CoreId{0}, blk);
    EXPECT_EQ(dir.sharers(blk), 0b01u);
}

TEST(CoherenceDirectoryDeathTest, RejectsBadConfigurations)
{
    EXPECT_DEATH(CoherenceDirectory(CoherenceKind::Msi, 65),
                 "core count must be in");
    EXPECT_DEATH(CoherenceDirectory(CoherenceKind::Msi, 0),
                 "core count must be in");
    EXPECT_DEATH(CoherenceDirectory(CoherenceKind::None, 4),
                 "construct only for MSI/MESI");
    EXPECT_DEATH(
        {
            CoherenceDirectory dir(CoherenceKind::Msi, 2);
            dir.onRead(CoreId{2}, 0x100);
        },
        "core out of range");
}

// ---------------------------------------------------------------------
// coherenceInvalidate across every LLC model
// ---------------------------------------------------------------------

/** Every model behind the common interface, built directly. */
std::vector<std::unique_ptr<Llc>>
allModels(const Compressor &comp)
{
    std::vector<std::unique_ptr<Llc>> out;
    out.push_back(std::make_unique<UncompressedLlc>(
        kBytes, kWays, ReplacementKind::Lru));
    out.push_back(std::make_unique<TwoTagNaiveLlc>(
        kBytes, kWays, ReplacementKind::Lru, comp));
    out.push_back(std::make_unique<TwoTagModifiedLlc>(
        kBytes, kWays, ReplacementKind::Lru, comp));
    out.push_back(std::make_unique<BaseVictimLlc>(
        kBytes, kWays, ReplacementKind::Lru, VictimReplKind::Ecm,
        comp));
    out.push_back(std::make_unique<VscLlc>(kBytes, kWays, comp));
    out.push_back(std::make_unique<DccLlc>(kBytes, kWays, comp));
    return out;
}

TEST(CoherenceInvalidate, RemovesResidentCopyInEveryModel)
{
    const auto comp = makeCompressor("bdi");
    std::uint8_t line[kLineBytes] = {};
    for (auto &llc : allModels(*comp)) {
        const Addr blk = set0Blk(1);
        llc->access(blk, AccessType::Read, line);
        ASSERT_TRUE(llc->probe(blk)) << llc->name();

        const LlcResult r = llc->coherenceInvalidate(blk);
        EXPECT_FALSE(llc->probe(blk)) << llc->name();
        // A clean resident copy leaves without memory traffic but with
        // the inclusion back-invalidation.
        EXPECT_TRUE(r.memWritebacks.empty()) << llc->name();
        ASSERT_EQ(r.backInvalidations.size(), 1u) << llc->name();
        EXPECT_EQ(r.backInvalidations.front(), blk) << llc->name();
        EXPECT_EQ(llc->stats().get("coherence_invalidations"), 1u)
            << llc->name();
    }
}

TEST(CoherenceInvalidate, MissIsANoOpWithEmptyResult)
{
    const auto comp = makeCompressor("bdi");
    std::uint8_t line[kLineBytes] = {};
    for (auto &llc : allModels(*comp)) {
        llc->access(set0Blk(1), AccessType::Read, line);
        const LlcResult r = llc->coherenceInvalidate(set0Blk(2));
        EXPECT_FALSE(r.hit) << llc->name();
        EXPECT_TRUE(r.memWritebacks.empty()) << llc->name();
        EXPECT_TRUE(r.backInvalidations.empty()) << llc->name();
        EXPECT_TRUE(llc->probe(set0Blk(1))) << llc->name();
        EXPECT_EQ(llc->stats().get("coherence_invalidations"), 0u)
            << llc->name();
    }
}

TEST(CoherenceInvalidate, DirtyCopyWritesBackExactlyOnce)
{
    const auto comp = makeCompressor("bdi");
    std::uint8_t line[kLineBytes] = {};
    for (auto &llc : allModels(*comp)) {
        const Addr blk = set0Blk(1);
        llc->access(blk, AccessType::Read, line);
        llc->access(blk, AccessType::Writeback, line); // mark dirty
        const LlcResult r = llc->coherenceInvalidate(blk);
        ASSERT_EQ(r.memWritebacks.size(), 1u) << llc->name();
        EXPECT_EQ(r.memWritebacks.front(), blk) << llc->name();
        EXPECT_FALSE(llc->probe(blk)) << llc->name();
    }
}

TEST(CoherenceInvalidate, DccInvalidatesSubBlockGranularity)
{
    const auto comp = makeCompressor("bdi");
    DccLlc dcc(kBytes, kWays, *comp);
    std::uint8_t line[kLineBytes] = {};
    // Two sub-blocks of one super-block; invalidating one must leave
    // the other resident under the shared tag.
    const Addr sub0 = 0;
    const Addr sub1 = kLineBytes;
    dcc.access(sub0, AccessType::Read, line);
    dcc.access(sub1, AccessType::Read, line);

    dcc.coherenceInvalidate(sub0);
    EXPECT_FALSE(dcc.probe(sub0));
    EXPECT_TRUE(dcc.probe(sub1));

    dcc.coherenceInvalidate(sub1);
    EXPECT_FALSE(dcc.probe(sub1));
    EXPECT_EQ(dcc.validLines(), 0u);
}

// ---------------------------------------------------------------------
// Shadow-checked snoop invalidations (the never-worse argument)
// ---------------------------------------------------------------------

/** Inclusive Base-Victim LLC under the checker; keeps a raw BV view. */
struct CheckedBv
{
    std::unique_ptr<Compressor> comp = makeCompressor("bdi");
    BaseVictimLlc *bv = nullptr;
    std::unique_ptr<ShadowChecker> checker;

    CheckedBv()
    {
        auto inner = std::make_unique<BaseVictimLlc>(
            kBytes, kWays, ReplacementKind::Nru, VictimReplKind::Ecm,
            *comp);
        bv = inner.get();
        checker = std::make_unique<ShadowChecker>(
            std::move(inner), kBytes, kWays, ReplacementKind::Nru);
    }
};

/** Drive `n` pattern-filled accesses through any Llc. */
void
drive(Llc &llc, std::uint64_t n, std::uint64_t seed,
      DataPatternKind kind = DataPatternKind::MixedGood)
{
    const DataPattern pattern(kind, seed);
    Rng rng(seed + 1);
    std::uint8_t line[kLineBytes];
    const std::uint64_t footprint = kSets * kWays * 3;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr blk = rng.range(footprint) * kLineBytes;
        pattern.fillLine(blk, line);
        AccessType type = AccessType::Read;
        const double r = rng.uniform();
        if (r < 0.05)
            type = AccessType::Prefetch;
        else if (r < 0.25 && llc.probeBase(blk))
            type = AccessType::Writeback;
        llc.access(blk, type, line);
    }
}

TEST(CoherenceInvalidate, VictimCopyDropsSilentlyWithMirrorIntact)
{
    // The satellite-3 scenario: a clean line evicted into the Victim
    // Cache and then coherence-invalidated must leave the Baseline
    // mirror untouched — the shadow and the Base-Victim cache both
    // report empty results and the lockstep mirror keeps passing.
    CheckedBv c;
    drive(*c.checker, 2000, 11, DataPatternKind::Zeros);

    Addr victimTag = 0;
    bool found = false;
    for (std::size_t si = 0; si < kSets && !found; ++si) {
        for (const WayIdx w : indexRange<WayIdx>(kWays)) {
            const CacheLine vl = c.bv->victimLineAt(SetIdx{si}, w);
            if (vl.valid) {
                victimTag = vl.tag;
                found = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "no victim line parked after 2000 zero-line "
                          "accesses";

    const std::uint64_t victimInvalsBefore =
        c.checker->stats().get("victim_coherence_invalidations");
    const LlcResult r = c.checker->coherenceInvalidate(victimTag);
    // Victim-only content is invisible to the baseline: no writeback
    // (clean by the inclusive invariant), no back-invalidation (never
    // baseline content), and the mirror check inside the call passed.
    EXPECT_TRUE(r.memWritebacks.empty());
    EXPECT_TRUE(r.backInvalidations.empty());
    EXPECT_FALSE(c.bv->probe(victimTag));
    EXPECT_EQ(c.checker->stats().get("victim_coherence_invalidations"),
              victimInvalsBefore + 1);

    // The stream continues in lockstep with no divergence.
    drive(*c.checker, 1000, 77);
}

TEST(CoherenceInvalidate, SnoopStormKeepsMirrorOverRandomStream)
{
    CheckedBv c;
    const DataPattern pattern(DataPatternKind::MixedGood, 5);
    Rng rng(6);
    std::uint8_t line[kLineBytes];
    const std::uint64_t footprint = kSets * kWays * 3;
    for (std::uint64_t i = 0; i < 8000; ++i) {
        const Addr blk = rng.range(footprint) * kLineBytes;
        if (rng.chance(0.05)) {
            c.checker->coherenceInvalidate(blk);
            continue;
        }
        pattern.fillLine(blk, line);
        AccessType type = AccessType::Read;
        const double r = rng.uniform();
        if (r < 0.05)
            type = AccessType::Prefetch;
        else if (r < 0.25 && c.checker->probeBase(blk))
            type = AccessType::Writeback;
        c.checker->access(blk, type, line);
    }
    EXPECT_GT(c.checker->stats().get("coherence_invalidations"), 0u);
}

TEST(CoherenceInvalidateDeathTest, CatchesMirrorDivergence)
{
    EXPECT_DEATH(
        {
            CheckedBv c;
            std::uint8_t line[kLineBytes] = {};
            c.checker->access(set0Blk(1), AccessType::Read, line);
            // Desynchronize the shadow behind the checker's back; the
            // next checked snoop of that set must die, attributed to
            // the CoherenceInval operation.
            c.checker->shadow().access(set0Blk(2), AccessType::Read,
                                       line);
            c.checker->coherenceInvalidate(set0Blk(1));
        },
        "CoherenceInval");
}

// ---------------------------------------------------------------------
// Banked LLC transparency
// ---------------------------------------------------------------------

void
driveGated(Llc &a, Llc &b, std::uint64_t n, std::uint64_t seed)
{
    const DataPattern pattern(DataPatternKind::MixedGood, seed);
    Rng rng(seed + 1);
    std::uint8_t line[kLineBytes];
    // Footprint spans all banks of the bench-sized cache (512 sets).
    const std::uint64_t footprint = 512 * 16 * 2;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr blk = rng.range(footprint) * kLineBytes;
        pattern.fillLine(blk, line);
        AccessType type = AccessType::Read;
        const double r = rng.uniform();
        const bool residentA = a.probeBase(blk);
        ASSERT_EQ(residentA, b.probeBase(blk))
            << "banked/unbanked contents diverged at access " << i;
        if (r < 0.05)
            type = AccessType::Prefetch;
        else if (r < 0.25 && residentA)
            type = AccessType::Writeback;
        else if (rng.chance(0.02)) {
            a.coherenceInvalidate(blk);
            b.coherenceInvalidate(blk);
            continue;
        }
        a.access(blk, type, line);
        b.access(blk, type, line);
    }
}

TEST(BankedLlc, BankingIsContentAndStatsTransparent)
{
    // Bank bits sit immediately above each bank's set bits, so banking
    // partitions the unbanked sets exactly: identical streams must
    // leave identical contents and identical aggregate counters.
    for (const LlcArch arch :
         {LlcArch::Uncompressed, LlcArch::BaseVictim, LlcArch::Dcc}) {
        SystemConfig mono = SystemConfig::benchDefaults();
        mono.arch = arch;
        SystemConfig banked = mono;
        banked.llcBanks = 4;

        const auto comp = makeCompressor(mono.compressor);
        const auto a = makeLlc(mono, *comp);
        const auto b = makeLlc(banked, *comp);
        driveGated(*a, *b, 20000, 17);

        EXPECT_EQ(a->validLines(), b->validLines())
            << llcArchName(arch);
        EXPECT_EQ(a->name(), b->name());
        for (const char *n : a->stats().names())
            EXPECT_EQ(a->stats().get(n), b->stats().get(n))
                << llcArchName(arch) << " counter " << n;
    }
}

TEST(BankedLlc, AccessesSpreadAcrossBanks)
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    cfg.llcBanks = 8;
    const auto comp = makeCompressor(cfg.compressor);
    const auto llc = makeLlc(cfg, *comp);
    auto *bankedLlc = dynamic_cast<BankedLlc *>(llc.get());
    ASSERT_NE(bankedLlc, nullptr);
    EXPECT_EQ(bankedLlc->numBanks(), 8u);

    drive(*llc, 4000, 23);
    std::size_t busyBanks = 0;
    for (std::size_t i = 0; i < bankedLlc->numBanks(); ++i)
        busyBanks +=
            bankedLlc->bank(i).stats().get("accesses") > 0 ? 1 : 0;
    // The random footprint is far larger than one bank's reach.
    EXPECT_GE(busyBanks, 2u);
}

TEST(BankedLlcDeathTest, RejectsNonPowerOfTwoBankCounts)
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.llcBanks = 3;
    const auto comp = makeCompressor(cfg.compressor);
    EXPECT_DEATH(makeLlc(cfg, *comp), "power of two");
}

// ---------------------------------------------------------------------
// Acceptance: per-core hit rate never-worse under invalidations
// ---------------------------------------------------------------------

TEST(CoherenceNeverWorse, PerCoreHitRateAtSixteenCores)
{
    // Dual-drive an inclusive Base-Victim LLC and the uncompressed
    // baseline with one identical 16-core access stream, including
    // coherence invalidations, and assert the paper's guarantee per
    // core: every core's demand hits in Base-Victim are at least its
    // hits in the baseline (hit-superset holds access by access, so it
    // holds under any attribution).
    constexpr std::size_t kCores = 16;
    const auto comp = makeCompressor("bdi");
    BaseVictimLlc bv(kBytes, kWays, ReplacementKind::Nru,
                     VictimReplKind::Ecm, *comp);
    UncompressedLlc unc(kBytes, kWays, ReplacementKind::Nru);

    const DataPattern pattern(DataPatternKind::MixedGood, 99);
    Rng rng(0xC0FFEE);
    std::uint8_t line[kLineBytes];
    const std::uint64_t footprint = kSets * kWays * 3;
    std::array<std::uint64_t, kCores> hitsBv{};
    std::array<std::uint64_t, kCores> hitsUnc{};
    std::array<std::uint64_t, kCores> demands{};

    for (std::uint64_t i = 0; i < 60000; ++i) {
        const std::size_t core = rng.range(kCores);
        // Shared region plus a per-core-biased region: cores overlap
        // but favor their own lines, like a coherent shared heap.
        Addr blk = rng.range(footprint) * kLineBytes;
        if (rng.chance(0.5))
            blk = ((core * footprint) / kCores + rng.range(footprint / kCores)) * kLineBytes;

        if (rng.chance(0.03)) {
            // External snoop: identical in both caches.
            bv.coherenceInvalidate(blk);
            unc.coherenceInvalidate(blk);
            continue;
        }

        pattern.fillLine(blk, line);
        const bool resident = unc.probe(blk);
        ASSERT_EQ(resident, bv.probeBase(blk)) << "mirror diverged";
        AccessType type = AccessType::Read;
        const double r = rng.uniform();
        if (r < 0.05)
            type = AccessType::Prefetch;
        else if (r < 0.25 && resident)
            type = AccessType::Writeback;

        const bool bvHit = bv.access(blk, type, line).hit;
        const bool uncHit = unc.access(blk, type, line).hit;
        if (type == AccessType::Read) {
            ++demands[core];
            hitsBv[core] += bvHit ? 1 : 0;
            hitsUnc[core] += uncHit ? 1 : 0;
            // Hit superset per access: a baseline hit implies a
            // Base-Victim hit even under the invalidation stream.
            ASSERT_TRUE(bvHit || !uncHit)
                << "never-worse violated at access " << i;
        }
    }

    ASSERT_GT(bv.stats().get("coherence_invalidations"), 0u);
    bool someCoreGained = false;
    for (std::size_t c = 0; c < kCores; ++c) {
        ASSERT_GT(demands[c], 0u);
        EXPECT_GE(hitsBv[c], hitsUnc[c]) << "core " << c;
        someCoreGained = someCoreGained || hitsBv[c] > hitsUnc[c];
    }
    // The Victim Cache must have produced opportunistic wins somewhere
    // (or the compression layer did nothing all run).
    EXPECT_TRUE(someCoreGained);
}

} // namespace
} // namespace bvc
