/** @file Tests for the N-core shared-LLC system (Section VI.C). */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/uncompressed_llc.hh"
#include "sim/multicore.hh"
#include "sim/system.hh"
#include "trace/workload_suite.hh"

namespace bvc
{
namespace
{

/** The suite's first 4-way mix of cache-sensitive traces. */
std::vector<TraceParams>
quickMix()
{
    const WorkloadSuite suite;
    const auto mix = suite.mixes(1).front();
    std::vector<TraceParams> out;
    for (const std::size_t idx : mix)
        out.push_back(suite.all()[idx].params);
    return out;
}

/** One N-way mix of cache-sensitive traces from the suite. */
std::vector<TraceParams>
quickMixN(std::size_t cores)
{
    const WorkloadSuite suite;
    const auto mix = suite.mixesN(cores, 1).front();
    std::vector<TraceParams> out;
    out.reserve(cores);
    for (const std::size_t idx : mix)
        out.push_back(suite.all()[idx].params);
    return out;
}

TEST(MultiCore, AllThreadsRetireTheirWindow)
{
    MultiCoreSystem system(SystemConfig::benchDefaults(), quickMix());
    const MultiRunResult result = system.run(5000, 20000);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GE(result.instructions[i], 20000u) << "thread " << i;
        EXPECT_GT(result.ipc[i], 0.0) << "thread " << i;
    }
}

TEST(MultiCore, DeterministicAcrossRuns)
{
    MultiCoreSystem a(SystemConfig::benchDefaults(), quickMix());
    MultiCoreSystem b(SystemConfig::benchDefaults(), quickMix());
    const MultiRunResult ra = a.run(5000, 15000);
    const MultiRunResult rb = b.run(5000, 15000);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(ra.ipc[i], rb.ipc[i]);
    EXPECT_EQ(ra.dramReads, rb.dramReads);
}

TEST(MultiCore, WeightedSpeedupOfSelfIsOne)
{
    MultiCoreSystem a(SystemConfig::benchDefaults(), quickMix());
    const MultiRunResult r = a.run(5000, 15000);
    EXPECT_DOUBLE_EQ(r.weightedSpeedup(r), 1.0);
}

TEST(MultiCore, SharedLlcContentionReducesIpc)
{
    // Run one thread's trace alone (single-core) vs inside a 4-way mix
    // with a shared LLC: contention must not increase its IPC.
    const auto mix = quickMix();
    SystemConfig cfg = SystemConfig::benchDefaults();

    System alone(cfg, mix[0]);
    const RunResult solo = alone.run(5000, 20000);

    MultiCoreSystem shared(cfg, mix);
    const MultiRunResult together = shared.run(5000, 20000);
    EXPECT_LE(together.ipc[0], solo.ipc * 1.05);
}

TEST(MultiCore, BaseVictimImprovesWeightedSpeedup)
{
    const auto mix = quickMix();
    SystemConfig base = SystemConfig::benchDefaults();
    base.llcBytes = 1024 * 1024; // "4MB" analog for 4 threads
    SystemConfig bv = base;
    bv.arch = LlcArch::BaseVictim;

    MultiCoreSystem baseSys(base, mix);
    const MultiRunResult rb = baseSys.run(10000, 30000);
    MultiCoreSystem bvSys(bv, mix);
    const MultiRunResult rv = bvSys.run(10000, 30000);

    EXPECT_GT(rv.weightedSpeedup(rb), 0.99);
    // Hit-rate guarantee holds for the whole mix (Section VI.C).
    EXPECT_LE(rv.llcDemandMisses, rb.llcDemandMisses);
}

TEST(MultiCore, WarmupResetsPerCoreStatGroups)
{
    // run() must reset every per-core StatGroup at the measurement
    // boundary, exactly like System::run does for its single core.
    // With warmup >> measure, leaked warmup traffic makes the per-core
    // loads+stores counters exceed the instructions retired in the
    // measured window — an impossibility when the reset is in place,
    // since every load/store is one retired instruction and both
    // counters restart together at beginMeasurement().
    MultiCoreSystem system(SystemConfig::benchDefaults(), quickMix());
    system.run(40000, 10000);
    for (std::size_t i = 0; i < 4; ++i) {
        const std::uint64_t memOps =
            system.core(CoreId{i}).stats().get("loads") +
            system.core(CoreId{i}).stats().get("stores");
        EXPECT_LE(memOps, system.core(CoreId{i}).result().instructions)
            << "thread " << i
            << ": warmup counters leaked into the measured window";
    }
}

TEST(MultiCore, ThreadsUseDisjointAddressSlices)
{
    const auto mix = quickMix();
    MultiCoreSystem system(SystemConfig::benchDefaults(), mix);
    system.run(2000, 5000);
    // No thread's private caches may hold another slice's lines; the
    // per-thread hierarchies are bound to per-thread memories, so a
    // cross-slice line would have failed inclusion checks. Spot-check
    // that per-core L1 contents differ in their slice bits.
    for (std::size_t i = 0; i < 4; ++i) {
        bool sawOwnSlice = false;
        system.hierarchy(CoreId{i}).l1d().forEachLine(
            [&](const CacheLine &line) {
                if ((line.tag >> 42) == i + 1)
                    sawOwnSlice = true;
                EXPECT_EQ(line.tag >> 42, i + 1);
            });
        EXPECT_TRUE(sawOwnSlice);
    }
}

TEST(MultiCoreDeathTest, WeightedSpeedupRejectsCoreCountMismatch)
{
    // The satellite-1 bugfix: comparing runs of different core counts
    // used to walk base.ipc out of bounds; it must panic instead.
    MultiRunResult two;
    two.ipc = {1.0, 1.0};
    MultiRunResult one;
    one.ipc = {1.0};
    EXPECT_DEATH(two.weightedSpeedup(one), "core-count mismatch");
}

TEST(MultiCore, BackInvalidationWritesBackOncePerLine)
{
    // Pins the fan-out accounting the coherence layer builds on: when
    // an LLC eviction back-invalidates a line that is dirty in SEVERAL
    // private hierarchies, exactly one memory write happens — the
    // fan-out ORs per-hierarchy dirtiness into one bool, it does not
    // emit one writeback per hierarchy.
    UncompressedLlc llc(512, 2, ReplacementKind::Lru); // 4 sets x 2 ways
    Dram dram;
    FunctionalMemory mem0;
    FunctionalMemory mem1;
    HierarchyConfig tiny;
    tiny.l1iBytes = tiny.l1dBytes = tiny.l2Bytes = 256; // 2 sets x 2 ways
    tiny.l1iWays = tiny.l1dWays = tiny.l2Ways = 2;
    tiny.prefetch = false;
    Hierarchy h0(tiny, llc, dram, mem0);
    Hierarchy h1(tiny, llc, dram, mem1);
    for (Hierarchy *h : {&h0, &h1}) {
        h->setBackInvalidateFn([&](Addr blk) {
            bool dirty = h0.invalidateUpper(blk);
            dirty = h1.invalidateUpper(blk) || dirty;
            return dirty;
        });
    }

    // Both cores dirty line 0 in their private caches.
    h0.store(0x100, 0, 1, 1);
    h1.store(0x100, 0, 2, 2);
    ASSERT_EQ(dram.stats().get("writes"), 0u);

    // Two more lines in LLC set 0 (4-set LLC: stride 256) evict line 0
    // from the 2-way set; the back-invalidation finds dirty copies in
    // both hierarchies.
    h0.load(0x100, 256, 3);
    h0.load(0x100, 512, 4);
    EXPECT_FALSE(llc.probe(0));
    EXPECT_EQ(dram.stats().get("writes"), 1u)
        << "a multi-hierarchy dirty back-invalidation must cost one "
           "memory write, not one per hierarchy";
    EXPECT_EQ(h0.stats().get("back_inval_writebacks") +
                  h1.stats().get("back_inval_writebacks"),
              1u);
}

TEST(MultiCore, MsiInvalidatesRemoteCopiesOnSharedWrites)
{
    // Two cores in ONE address space under MSI: overlapping footprints
    // with a store fraction must generate real directory traffic.
    SystemConfig cfg = SystemConfig::benchDefaults();
    MultiCoreConfig mc;
    mc.coherence = CoherenceKind::Msi;
    mc.sharedAddressSpace = true;
    MultiCoreSystem system(cfg, quickMixN(2), mc);
    ASSERT_NE(system.directory(), nullptr);
    system.run(2000, 10000);

    const StatGroup &ds = system.directory()->stats();
    EXPECT_GT(ds.get("reads"), 0u);
    EXPECT_GT(ds.get("writes"), 0u);
    EXPECT_GT(ds.get("invalidations_sent"), 0u)
        << "shared-space mixes must actually contend for lines";
    // Coherence keeps inclusion intact in every private hierarchy.
    for (std::size_t i = 0; i < system.numCores(); ++i)
        EXPECT_TRUE(system.hierarchy(CoreId{i}).checkInclusion());
}

TEST(MultiCore, MesiGrantsExclusiveOnPrivateData)
{
    // Disjoint-slice traces under MESI: every first read is the sole
    // reader, so exclusive grants dominate and silent E->M upgrades
    // replace invalidation traffic entirely.
    SystemConfig cfg = SystemConfig::benchDefaults();
    MultiCoreConfig mc;
    mc.coherence = CoherenceKind::Mesi;
    MultiCoreSystem system(cfg, quickMixN(4), mc);
    system.run(2000, 10000);

    const StatGroup &ds = system.directory()->stats();
    EXPECT_GT(ds.get("exclusive_grants"), 0u);
    EXPECT_GT(ds.get("silent_upgrades"), 0u);
    EXPECT_EQ(ds.get("invalidations_sent"), 0u)
        << "disjoint slices share no lines, so MESI must never "
           "invalidate";
}

TEST(MultiCore, SixteenCoreCoherentRunCompletesUnderCheck)
{
    // The acceptance run: 16 coherent cores in a shared address space
    // over a 4-bank Base-Victim LLC, every bank wrapped by the lockstep
    // shadow checker (BVC_CHECK=1). The default fail handler aborts on
    // any divergence, so completing the run IS the zero-divergence
    // assertion — including under an external snoop storm.
    const char *prev = std::getenv("BVC_CHECK");
    const std::string saved = prev ? prev : "";
    setenv("BVC_CHECK", "1", 1);

    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    cfg.llcBanks = 4;
    MultiCoreConfig mc;
    mc.coherence = CoherenceKind::Msi;
    mc.sharedAddressSpace = true;
    {
        MultiCoreSystem system(cfg, quickMixN(16), mc);
        const MultiRunResult result = system.run(1000, 3000);
        for (std::size_t i = 0; i < 16; ++i)
            EXPECT_GT(result.ipc[i], 0.0) << "core " << i;

        // Snoop every line core 0's L1D holds: inclusive LLC, so each
        // must hit the checked coherenceInvalidate path.
        std::vector<Addr> resident;
        system.hierarchy(CoreId{0}).l1d().forEachLine(
            [&](const CacheLine &line) { resident.push_back(line.tag); });
        ASSERT_FALSE(resident.empty());
        for (const Addr blk : resident)
            system.snoopInvalidate(blk);
        EXPECT_GE(system.llc().stats().get("coherence_invalidations"),
                  resident.size());
        for (const Addr blk : resident)
            EXPECT_FALSE(system.llc().probe(blk));
        for (std::size_t i = 0; i < 16; ++i)
            EXPECT_TRUE(system.hierarchy(CoreId{i}).checkInclusion());
    }

    if (prev)
        setenv("BVC_CHECK", saved.c_str(), 1);
    else
        unsetenv("BVC_CHECK");
}

TEST(MultiCore, SixtyFourCoreRunCompletes)
{
    // The directory's one-word sharer mask tops out at 64 cores; the
    // largest configuration must construct and run end to end.
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.llcBanks = 8;
    MultiCoreConfig mc;
    mc.coherence = CoherenceKind::Msi;
    mc.sharedAddressSpace = true;
    MultiCoreSystem system(cfg, quickMixN(64), mc);
    EXPECT_EQ(system.numCores(), 64u);
    const MultiRunResult result = system.run(200, 500);
    EXPECT_EQ(result.ipc.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_GT(result.ipc[i], 0.0) << "core " << i;
}

} // namespace
} // namespace bvc
