/**
 * @file
 * Multi-programmed example: four traces share one LLC (the Section
 * VI.C setup). Shows per-thread IPC under the uncompressed baseline
 * vs Base-Victim compression, and the weighted-speedup metric the
 * paper reports for Figure 13.
 */

#include <cstdio>
#include <vector>

#include "sim/multicore.hh"
#include "trace/workload_suite.hh"
#include "util/table.hh"

using namespace bvc;

int
main()
{
    const WorkloadSuite suite;
    const auto mix = suite.mixes(1).front();
    std::vector<TraceParams> traces;
    for (const std::size_t idx : mix)
        traces.push_back(suite.all()[idx].params);

    // 1MB shared LLC: the bench-scale analog of the paper's 4MB.
    SystemConfig base = SystemConfig::benchDefaults();
    base.llcBytes = 1024 * 1024;
    SystemConfig compressed = base;
    compressed.arch = LlcArch::BaseVictim;

    std::printf("mix:\n");
    for (const auto &t : traces)
        std::printf("  %s\n", t.name.c_str());

    MultiCoreSystem baseSystem(base, traces);
    const MultiRunResult rb = baseSystem.run(50'000, 150'000);
    MultiCoreSystem bvSystem(compressed, traces);
    const MultiRunResult rv = bvSystem.run(50'000, 150'000);

    Table table({"thread", "trace", "IPC (base)", "IPC (base-victim)",
                 "speedup"});
    for (std::size_t i = 0; i < traces.size(); ++i) {
        table.addRow({std::to_string(i), traces[i].name,
                      Table::num(rb.ipc[i]), Table::num(rv.ipc[i]),
                      Table::num(rv.ipc[i] / rb.ipc[i])});
    }
    std::printf("\n%s", table.render().c_str());

    std::printf("\nnormalized weighted speedup : %.4f "
                "(paper Figure 13: +8.7%% average over 20 mixes)\n",
                rv.weightedSpeedup(rb));
    std::printf("shared-LLC victim hits      : %llu\n",
                static_cast<unsigned long long>(rv.llcVictimHits));
    std::printf("hit-rate guarantee          : %s\n",
                rv.llcDemandMisses <= rb.llcDemandMisses
                    ? "held (misses <= baseline)"
                    : "VIOLATED");
    return 0;
}
