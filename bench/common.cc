#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "runner/thread_pool.hh"
#include "util/table.hh"

namespace bvc::bench
{

namespace
{

/**
 * Anchor for the harness wall-clock footer. Re-armed after every
 * series summary so a binary that prints several series reports each
 * one's own elapsed time — a process-start anchor made the second
 * series inherit the first's wall-clock and deflated its jobs/s.
 */
std::chrono::steady_clock::time_point seriesAnchor =
    std::chrono::steady_clock::now();

} // namespace

Context::Context()
    : suite(512 * 1024),
      opts(ExperimentOptions::fromEnv()),
      baseline(SystemConfig::benchDefaults())
{
}

void
printHeader(const std::string &title, const std::string &paperRef,
            const Context &ctx)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paperRef.c_str());
    std::printf("Config: %zuKB %zu-way LLC (paper sizes / 4), "
                "warmup %llu, measure %llu instructions/trace\n",
                ctx.baseline.llcBytes / 1024, ctx.baseline.llcWays,
                static_cast<unsigned long long>(ctx.opts.warmup),
                static_cast<unsigned long long>(ctx.opts.measure));
    std::printf("==========================================================\n");
}

namespace
{

void
printSorted(const char *bucket, std::vector<TraceRatio> ratios)
{
    std::sort(ratios.begin(), ratios.end(),
              [](const TraceRatio &a, const TraceRatio &b) {
                  return a.ipcRatio > b.ipcRatio;
              });
    Table table({"trace", "IPC ratio", "DRAM read ratio"});
    for (const TraceRatio &r : ratios)
        table.addRow({r.name, Table::num(r.ipcRatio),
                      Table::num(r.dramReadRatio)});
    std::printf("\n[%s traces, sorted by IPC ratio]\n%s", bucket,
                table.render().c_str());
}

} // namespace

void
printTraceSeries(const std::vector<TraceRatio> &ratios)
{
    std::vector<TraceRatio> friendly, poor;
    for (const TraceRatio &r : ratios)
        (r.compressionFriendly ? friendly : poor).push_back(r);
    if (!friendly.empty())
        printSorted("compression-friendly", friendly);
    if (!poor.empty())
        printSorted("low-compressibility", poor);
}

double
friendlyIpcGeomean(const std::vector<TraceRatio> &ratios, bool friendly)
{
    std::vector<double> values;
    for (const TraceRatio &r : ratios)
        if (r.compressionFriendly == friendly)
            values.push_back(r.ipcRatio);
    return geomean(values);
}

void
printSeriesSummary(const std::string &label,
                   const std::vector<TraceRatio> &ratios)
{
    if (ratios.empty()) {
        std::printf("\n[%s] traces: 0 — no jobs ran; nothing to "
                    "summarize\n",
                    label.c_str());
        seriesAnchor = std::chrono::steady_clock::now();
        return;
    }
    std::printf("\n[%s] traces: %zu\n", label.c_str(), ratios.size());
    std::printf("  geomean IPC ratio        : %.4f\n",
                overallIpcGeomean(ratios));
    std::printf("  geomean (friendly only)  : %.4f\n",
                friendlyIpcGeomean(ratios, true));
    std::printf("  geomean (low-compress)   : %.4f\n",
                friendlyIpcGeomean(ratios, false));
    std::printf("  geomean DRAM read ratio  : %.4f\n",
                overallDramReadGeomean(ratios));
    std::printf("  traces losing IPC (<1.0) : %zu / %zu\n",
                countBelow(ratios, 1.0), ratios.size());
    double worst = 1e9;
    std::string worstName;
    for (const TraceRatio &r : ratios) {
        if (r.ipcRatio < worst) {
            worst = r.ipcRatio;
            worstName = r.name;
        }
    }
    std::printf("  worst IPC ratio          : %.4f (%s)\n", worst,
                worstName.c_str());
    // Back-invalidation traffic ratio (Section VI.A notes the modified
    // two-tag scheme "causes more back-invalidations than baseline").
    // Add-one smoothing keeps traces where the test model eliminated
    // every back-invalidation in the aggregate (a raw test/base ratio
    // of 0 cannot enter a geomean, and dropping those traces biased
    // the printed ratio upward — they are exactly the best cases).
    // Traces with no baseline back-invalidations carry no signal and
    // are excluded but counted.
    std::vector<double> backInvalRatios;
    std::size_t eliminatedAll = 0;
    std::size_t noBaseline = 0;
    for (const TraceRatio &r : ratios) {
        if (r.base.backInvalidations == 0) {
            ++noBaseline;
            continue;
        }
        if (r.test.backInvalidations == 0)
            ++eliminatedAll;
        backInvalRatios.push_back(
            (static_cast<double>(r.test.backInvalidations) + 1.0) /
            (static_cast<double>(r.base.backInvalidations) + 1.0));
    }
    std::printf("  geomean back-inval ratio : %.4f (+1-smoothed over "
                "%zu traces; %zu eliminated all, %zu without baseline "
                "back-invals excluded)\n",
                geomean(backInvalRatios), backInvalRatios.size(),
                eliminatedAll, noBaseline);
    // Harness-throughput footer: the per-series wall-clock is where
    // the time to regenerate a figure is read.
    double jobSeconds = 0.0;
    for (const TraceRatio &r : ratios)
        jobSeconds += r.baseSeconds + r.testSeconds;
    const double wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - seriesAnchor).count();
    const std::size_t jobs = ratios.size() * 2;
    std::printf("  sweep wall-clock         : %.2f s (%zu jobs, "
                "%.2f jobs/s, %u threads)\n",
                wallSeconds, jobs,
                wallSeconds > 0.0
                    ? static_cast<double>(jobs) / wallSeconds : 0.0,
                resolveThreadCount(0));
    std::printf("  sweep job-seconds        : %.2f s (%.2fx parallel "
                "utilization)\n",
                jobSeconds,
                wallSeconds > 0.0 ? jobSeconds / wallSeconds : 0.0);
    seriesAnchor = std::chrono::steady_clock::now();
}

void
printCategorySummary(const std::string &label,
                     const std::vector<TraceRatio> &ratios)
{
    Table table({"bucket", "SPECFP", "SPECINT", "Productivity",
                 "Client", "Average"});
    const WorkloadCategory categories[] = {
        WorkloadCategory::SpecFp, WorkloadCategory::SpecInt,
        WorkloadCategory::Productivity, WorkloadCategory::Client};

    auto rowFor = [&](const char *bucket, bool friendlyOnly) {
        std::vector<TraceRatio> subset;
        for (const TraceRatio &r : ratios)
            if (!friendlyOnly || r.compressionFriendly)
                subset.push_back(r);
        std::vector<std::string> row = {bucket};
        for (const auto category : categories)
            row.push_back(
                Table::num(categoryIpcGeomean(subset, category)));
        row.push_back(Table::num(overallIpcGeomean(subset)));
        table.addRow(std::move(row));
    };

    rowFor("compression-friendly", true);
    rowFor("overall", false);
    std::printf("\n[%s] IPC ratio per category (geomean)\n%s",
                label.c_str(), table.render().c_str());
}

} // namespace bvc::bench
