/**
 * @file
 * Fixed-seed golden snapshot of per-model counters. The snapshot file
 * (tests/golden/stats_golden.txt) was generated from the pre-SoA
 * AoS hot path and committed; this test regenerates the identical runs
 * and compares byte-for-byte, so any refactor of the probe/metadata
 * hot path, the trace decode batching, or the BDI size-only scan that
 * changes a single counter anywhere in the pipeline fails loudly.
 *
 * A second snapshot (tests/golden/component_stats_golden.txt) pins the
 * groups the LLC dump does not cover: L1I/L1D/L2, hierarchy, core,
 * DRAM and the coherence directory.
 *
 * Every snapshotted quantity is an integer counter (no floats), so the
 * comparison is exact on any host. Regenerate deliberately with
 *
 *     BVC_UPDATE_GOLDEN=1 ./build/tests/test_stats_golden
 *
 * and review the diff like any other behaviour change.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/report.hh"
#include "sim/multicore.hh"
#include "sim/system.hh"

namespace bvc
{
namespace
{

constexpr std::uint64_t kWarmup = 5'000;
constexpr std::uint64_t kMeasure = 20'000;

/**
 * Every generator knob pinned explicitly — the snapshot must not move
 * when WorkloadSuite's calibration does.
 */
TraceParams
goldenTrace(std::uint64_t seed)
{
    TraceParams p;
    p.name = "golden/mixed." + std::to_string(seed);
    p.category = WorkloadCategory::SpecInt;
    p.seed = seed;
    p.loadFrac = 0.30;
    p.storeFrac = 0.12;
    p.streamFrac = 0.25;
    p.chaseFrac = 0.05;
    p.wsBytes = 1ULL << 20;
    p.hotBytes = 32ULL << 10;
    p.residentBytes = 256ULL << 10;
    p.hotFrac = 0.50;
    p.residentFrac = 0.30;
    p.streamBytes = 2ULL << 20;
    p.chaseBytes = 128ULL << 10;
    p.pattern = DataPatternKind::MixedGood;
    p.pcCount = 64;
    p.streamCursors = 4;
    return p;
}

constexpr LlcArch kArches[] = {
    LlcArch::Uncompressed, LlcArch::TwoTagNaive, LlcArch::TwoTagModified,
    LlcArch::BaseVictim,   LlcArch::Vsc,         LlcArch::Dcc,
};

/** One single-core measured window per LLC organization. */
std::string
singleCoreSnapshot()
{
    std::ostringstream out;
    for (const LlcArch arch : kArches) {
        SystemConfig cfg = SystemConfig::benchDefaults();
        cfg.arch = arch;
        System system(cfg, goldenTrace(77));
        const RunResult r = system.run(kWarmup, kMeasure);
        out << "== " << llcArchName(arch) << " ==\n";
        out << "instructions " << r.instructions << "\n";
        out << "cycles " << r.cycles << "\n";
        out << "dram_reads " << r.dramReads << "\n";
        out << "dram_writes " << r.dramWrites << "\n";
        out << "dram_demand_reads " << r.dramDemandReads << "\n";
        out << system.llc().stats().dump();
    }
    return out.str();
}

/** One 4-core mix (shared LLC) to pin the multicore decode path. */
std::string
multiCoreSnapshot()
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    const std::vector<TraceParams> traces = {
        goldenTrace(101), goldenTrace(202), goldenTrace(303),
        goldenTrace(404)};
    MultiCoreSystem system(cfg, traces);
    const MultiRunResult r = system.run(3'000, 8'000);
    std::ostringstream out;
    out << "== multicore base-victim ==\n";
    for (std::size_t i = 0; i < traces.size(); ++i)
        out << "core" << i << "_instructions " << r.instructions[i]
            << "\n";
    out << "dram_reads " << r.dramReads << "\n";
    out << "dram_writes " << r.dramWrites << "\n";
    out << system.llc().stats().dump();
    return out.str();
}

/** Every counter group of one core's private side. */
void
dumpCoreGroups(std::ostringstream &out, Hierarchy &hier,
               OooCore &core)
{
    out << hier.l1i().stats().dump() << hier.l1d().stats().dump()
        << hier.l2().stats().dump() << hier.stats().dump()
        << core.stats().dump();
}

/**
 * The non-LLC groups: L1I/L1D/L2, hierarchy, core and DRAM for two
 * single-core organizations, then every core plus the directory of a
 * 4-core MSI mix in one address space.
 */
std::string
componentSnapshot()
{
    std::ostringstream out;
    for (const LlcArch arch : {LlcArch::Uncompressed, LlcArch::BaseVictim}) {
        SystemConfig cfg = SystemConfig::benchDefaults();
        cfg.arch = arch;
        System system(cfg, goldenTrace(77));
        system.run(kWarmup, kMeasure);
        out << "== " << llcArchName(arch) << " ==\n";
        dumpCoreGroups(out, system.hierarchy(), system.core());
        out << system.dram().stats().dump();
    }

    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    const std::vector<TraceParams> traces = {
        goldenTrace(101), goldenTrace(202), goldenTrace(303),
        goldenTrace(404)};
    MultiCoreConfig mc;
    mc.coherence = CoherenceKind::Msi;
    mc.sharedAddressSpace = true;
    MultiCoreSystem system(cfg, traces, mc);
    system.run(3'000, 8'000);
    out << "== multicore msi base-victim ==\n";
    for (std::size_t i = 0; i < traces.size(); ++i) {
        out << "-- core" << i << " --\n";
        dumpCoreGroups(out, system.hierarchy(CoreId{i}),
                       system.core(CoreId{i}));
    }
    out << system.dram().stats().dump();
    out << system.directory()->stats().dump();
    return out.str();
}

/**
 * Compare `got` with the committed snapshot `file`, or rewrite the file
 * when BVC_UPDATE_GOLDEN=1.
 */
void
expectMatchesGolden(const std::string &file, const std::string &got)
{
    const std::string path = std::string(BVC_GOLDEN_DIR) + "/" + file;
    const char *update = std::getenv("BVC_UPDATE_GOLDEN");
    if (update != nullptr && std::string(update) == "1") {
        writeFile(path, got);
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden snapshot " << path
        << " — regenerate with BVC_UPDATE_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(want.str(), got)
        << "counters diverged from the committed golden snapshot "
        << file << "; if the change is intentional, regenerate with "
           "BVC_UPDATE_GOLDEN=1 and review the diff";
}

TEST(StatsGolden, CountersMatchCommittedSnapshot)
{
    expectMatchesGolden("stats_golden.txt",
                        singleCoreSnapshot() + multiCoreSnapshot());
}

TEST(StatsGolden, ComponentCountersMatchCommittedSnapshot)
{
    expectMatchesGolden("component_stats_golden.txt",
                        componentSnapshot());
}

} // namespace
} // namespace bvc
