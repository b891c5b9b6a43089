/**
 * @file
 * Reproduces Figure 13: multi-programmed mixes on a shared LLC,
 * reported as normalized weighted speedup. The paper (4MB baseline):
 * opportunistic compression +8.7% vs +9% for a 6MB (1.5x) cache; (8MB
 * baseline): +11.2% vs +15.7% for 12MB; no negative outliers and a
 * hit-rate at least that of the uncompressed cache for every mix.
 * Bench-scale equivalents: 1MB and 2MB shared LLCs.
 *
 * The paper evaluates 4-way mixes; a 16-core section extends the same
 * methodology to the banked many-core configuration (the hit-rate
 * guarantee is per-mix there too). Exits 1 if any mix in any section
 * violates the hit-rate guarantee.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "sim/multicore.hh"
#include "util/table.hh"

using namespace bvc;

namespace
{

struct MixOutcome
{
    double compressed = 0.0;
    double bigger = 0.0;
    bool hitGuaranteeHeld = false;
};

MixOutcome
runMix(const bench::Context &ctx, const std::vector<TraceParams> &traces,
       std::size_t llcBytes, std::size_t llcBanks,
       std::uint64_t windowDivisor)
{
    SystemConfig base = ctx.baseline;
    base.llcBytes = llcBytes;
    base.llcBanks = llcBanks;
    SystemConfig bv = base;
    bv.arch = LlcArch::BaseVictim;
    const SystemConfig bigger = base.withLlcScale(1.5);

    // Per-thread windows shrink with the thread count so total work
    // stays comparable (all threads execute concurrently).
    const std::uint64_t warmup = ctx.opts.warmup / windowDivisor;
    const std::uint64_t measure = ctx.opts.measure / windowDivisor;

    MultiCoreSystem baseSys(base, traces);
    const MultiRunResult rb = baseSys.run(warmup, measure);
    MultiCoreSystem bvSys(bv, traces);
    const MultiRunResult rv = bvSys.run(warmup, measure);
    MultiCoreSystem bigSys(bigger, traces);
    const MultiRunResult rg = bigSys.run(warmup, measure);

    MixOutcome outcome;
    outcome.compressed = rv.weightedSpeedup(rb);
    outcome.bigger = rg.weightedSpeedup(rb);
    outcome.hitGuaranteeHeld =
        rv.llcDemandMisses <= rb.llcDemandMisses;
    return outcome;
}

/**
 * One table section over `mixes`, each a list of suite indices.
 * Returns the number of mixes that violate the hit-rate guarantee.
 */
std::size_t
runSection(const bench::Context &ctx, const char *label,
           const std::vector<std::vector<std::size_t>> &mixes,
           std::size_t llcBytes, std::size_t llcBanks,
           std::uint64_t windowDivisor, const char *paperBv,
           const char *paperBig)
{
    Table table({"mix", "Base-Victim", "1.5x uncompressed",
                 "hit guarantee"});
    std::vector<double> bvAll, bigAll;
    std::size_t violations = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::vector<TraceParams> traces;
        traces.reserve(mixes[m].size());
        for (const std::size_t idx : mixes[m])
            traces.push_back(ctx.suite.all()[idx].params);
        const MixOutcome outcome =
            runMix(ctx, traces, llcBytes, llcBanks, windowDivisor);
        bvAll.push_back(outcome.compressed);
        bigAll.push_back(outcome.bigger);
        violations += !outcome.hitGuaranteeHeld;
        table.addRow({"MIX" + std::to_string(m),
                      Table::num(outcome.compressed),
                      Table::num(outcome.bigger),
                      outcome.hitGuaranteeHeld ? "ok" : "VIOLATED"});
    }
    std::printf("\n[%s]\n%s", label, table.render().c_str());
    if (paperBv != nullptr) {
        std::printf("geomean: Base-Victim %.4f (paper %s), 1.5x cache "
                    "%.4f (paper %s); hit-guarantee violations: %zu\n",
                    geomean(bvAll), paperBv, geomean(bigAll), paperBig,
                    violations);
    } else {
        std::printf("geomean: Base-Victim %.4f, 1.5x cache %.4f; "
                    "hit-guarantee violations: %zu\n",
                    geomean(bvAll), geomean(bigAll), violations);
    }
    return violations;
}

} // namespace

int
main()
{
    bench::Context ctx;
    bench::printHeader(
        "Figure 13: multi-program mixes (weighted speedup)",
        "Figure 13; Section VI.C", ctx);

    // The paper's 4-way mixes (20 draws, historical mix tables).
    const auto mixes4 = ctx.suite.mixes(20);
    std::vector<std::vector<std::size_t>> mixes4v;
    for (const auto &mix : mixes4)
        mixes4v.push_back({mix[0], mix[1], mix[2], mix[3]});

    std::size_t violations = 0;
    violations += runSection(
        ctx, "\"4MB\"-class shared LLC (1MB bench scale)", mixes4v,
        1024 * 1024, /*banks=*/1, /*divisor=*/2, "+8.7%", "+9.0%");
    violations += runSection(
        ctx, "\"8MB\"-class shared LLC (2MB bench scale)", mixes4v,
        2 * 1024 * 1024, /*banks=*/1, /*divisor=*/2, "+11.2%", "+15.7%");

    // Beyond the paper: 16-way mixes over the 4-bank 2MB LLC. Fewer
    // draws and smaller per-thread windows keep the total instruction
    // budget near the 4-way sections'.
    violations += runSection(
        ctx, "16-core mixes, 4-bank 2MB shared LLC",
        ctx.suite.mixesN(16, 5), 2 * 1024 * 1024, /*banks=*/4,
        /*divisor=*/8, nullptr, nullptr);
    return violations == 0 ? 0 : 1;
}
