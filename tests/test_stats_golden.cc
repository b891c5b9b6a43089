/**
 * @file
 * Fixed-seed golden snapshot of per-model counters. The snapshot file
 * (tests/golden/stats_golden.txt) was generated from the pre-SoA
 * AoS hot path and committed; this test regenerates the identical runs
 * and compares byte-for-byte, so any refactor of the probe/metadata
 * hot path, the trace decode batching, or the BDI size-only scan that
 * changes a single counter anywhere in the pipeline fails loudly.
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

std::string
goldenPath()
{
    return std::string(BVC_GOLDEN_DIR) + "/stats_golden.txt";
}

TEST(StatsGolden, CountersMatchCommittedSnapshot)
{
    const std::string got =
        singleCoreSnapshot() + multiCoreSnapshot();

    const char *update = std::getenv("BVC_UPDATE_GOLDEN");
    if (update != nullptr && std::string(update) == "1") {
        writeFile(goldenPath(), got);
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in.good())
        << "missing golden snapshot " << goldenPath()
        << " — regenerate with BVC_UPDATE_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(want.str(), got)
        << "per-model counters diverged from the committed golden "
           "snapshot; if the change is intentional, regenerate with "
           "BVC_UPDATE_GOLDEN=1 and review the diff";
}

} // namespace
} // namespace bvc
