#include "sim/system.hh"

#include <bit>
#include <cmath>

#include "check/shadow_checker.hh"
#include "core/banked_llc.hh"
#include "core/dcc_cache.hh"
#include "core/two_tag_array.hh"
#include "core/uncompressed_llc.hh"
#include "core/vsc_cache.hh"
#include "util/logging.hh"

namespace bvc
{

const char *
llcArchName(LlcArch arch)
{
    switch (arch) {
      case LlcArch::Uncompressed: return "Uncompressed";
      case LlcArch::TwoTagNaive: return "TwoTagNaive";
      case LlcArch::TwoTagModified: return "TwoTagModified";
      case LlcArch::BaseVictim: return "BaseVictim";
      case LlcArch::Vsc: return "VSC-2X";
      case LlcArch::Dcc: return "DCC";
    }
    panic("llcArchName: unknown arch");
}

SystemConfig
SystemConfig::benchDefaults()
{
    SystemConfig cfg;
    // All capacities are the paper's Section V sizes divided by 4; the
    // latencies are kept (they are load-to-use, not capacity-derived).
    cfg.hier.l1iBytes = 8 * 1024;
    cfg.hier.l1iWays = 8;
    cfg.hier.l1dBytes = 8 * 1024;
    cfg.hier.l1dWays = 8;
    cfg.hier.l2Bytes = 64 * 1024;
    cfg.hier.l2Ways = 8;
    cfg.llcBytes = 512 * 1024;
    cfg.llcWays = 16;
    return cfg;
}

SystemConfig
SystemConfig::paperDefaults()
{
    SystemConfig cfg;
    cfg.hier.l1iBytes = 32 * 1024;
    cfg.hier.l1iWays = 8;
    cfg.hier.l1dBytes = 32 * 1024;
    cfg.hier.l1dWays = 8;
    cfg.hier.l2Bytes = 256 * 1024;
    cfg.hier.l2Ways = 8;
    cfg.llcBytes = 2 * 1024 * 1024;
    cfg.llcWays = 16;
    return cfg;
}

SystemConfig
SystemConfig::withLlcScale(double factor) const
{
    SystemConfig out = *this;
    const double ways = std::round(static_cast<double>(llcWays) * factor);
    out.llcWays = static_cast<std::size_t>(ways);
    out.llcBytes = static_cast<std::size_t>(
        static_cast<double>(llcBytes) / static_cast<double>(llcWays) *
        ways);
    if (out.llcBytes != llcBytes) {
        // Bigger tag + data arrays cost one extra access cycle
        // (Section VI.A: "we add an extra cycle of latency").
        out.hier.llcLatency += 1;
    }
    return out;
}

namespace
{

/** One monolithic LLC of `sizeBytes` (a whole cache or one bank). */
std::unique_ptr<Llc>
makeUnbankedLlc(const SystemConfig &cfg, const Compressor &comp,
                std::size_t sizeBytes)
{
    std::unique_ptr<Llc> llc;
    switch (cfg.arch) {
      case LlcArch::Uncompressed:
        llc = std::make_unique<UncompressedLlc>(sizeBytes, cfg.llcWays,
                                                cfg.llcRepl);
        break;
      case LlcArch::TwoTagNaive:
        llc = std::make_unique<TwoTagNaiveLlc>(sizeBytes, cfg.llcWays,
                                               cfg.llcRepl, comp);
        break;
      case LlcArch::TwoTagModified:
        llc = std::make_unique<TwoTagModifiedLlc>(sizeBytes,
                                                  cfg.llcWays,
                                                  cfg.llcRepl, comp);
        break;
      case LlcArch::BaseVictim:
        llc = std::make_unique<BaseVictimLlc>(
            sizeBytes, cfg.llcWays, cfg.llcRepl, cfg.victimRepl,
            comp, cfg.llcInclusive, cfg.segmentQuantum);
        break;
      case LlcArch::Vsc:
        llc = std::make_unique<VscLlc>(sizeBytes, cfg.llcWays, comp);
        break;
      case LlcArch::Dcc:
        llc = std::make_unique<DccLlc>(sizeBytes, cfg.llcWays, comp);
        break;
    }
    panicIf(llc == nullptr, "makeLlc: unknown arch");
    // BVC_CHECK=1: every System/MultiCoreSystem run drives the LLC
    // through the lockstep shadow checker (transparent to callers:
    // name() and stats() forward to the wrapped model). Banked caches
    // wrap each bank, so the mirror is asserted per bank.
    if (shadowCheckEnabled())
        return wrapWithShadowChecker(std::move(llc), sizeBytes,
                                     cfg.llcWays, cfg.llcRepl);
    return llc;
}

} // namespace

std::unique_ptr<Llc>
makeLlc(const SystemConfig &cfg, const Compressor &comp)
{
    if (!cfg.llcInclusive && cfg.arch != LlcArch::BaseVictim)
        fatal("non-inclusive operation is only implemented for the "
              "Base-Victim LLC (Section IV.B.3)");
    if (cfg.llcBanks <= 1)
        return makeUnbankedLlc(cfg, comp, cfg.llcBytes);

    panicIf((cfg.llcBanks & (cfg.llcBanks - 1)) != 0,
            "llcBanks must be a power of two");
    panicIf(cfg.llcBytes % cfg.llcBanks != 0,
            "llcBytes must divide evenly across llcBanks");
    const std::size_t bankBytes = cfg.llcBytes / cfg.llcBanks;
    std::vector<std::unique_ptr<Llc>> banks;
    banks.reserve(cfg.llcBanks);
    for (std::size_t b = 0; b < cfg.llcBanks; ++b)
        banks.push_back(makeUnbankedLlc(cfg, comp, bankBytes));

    // Bank on the bits immediately above each bank's local set-index
    // bits so banking partitions the unbanked sets exactly (see
    // core/banked_llc.hh). Every model derives its set count with
    // cacheSetCount (sizeBytes / line / ways); DCC indexes sets at
    // super-block (4-line) granularity, so its set bits start 2 higher.
    const std::size_t setsPerBank =
        bankBytes / kLineBytes / cfg.llcWays;
    unsigned bankShift = kLineShift +
        static_cast<unsigned>(std::countr_zero(setsPerBank));
    if (cfg.arch == LlcArch::Dcc)
        bankShift += 2;
    return std::make_unique<BankedLlc>(std::move(banks), bankShift);
}

System::System(const SystemConfig &cfg, const TraceParams &trace)
    : sys_(cfg, std::span<const TraceParams>(&trace, 1),
           MultiCoreConfig{CoherenceKind::None,
                           /*sharedAddressSpace=*/true})
{
}

RunResult
System::run(std::uint64_t warmup, std::uint64_t measure)
{
    sys_.run(warmup, measure);
    return snapshot();
}

RunResult
System::snapshot() const
{
    RunResult out;
    const CoreResult cr = sys_.core(CoreId{0}).result();
    out.ipc = cr.ipc;
    out.instructions = cr.instructions;
    out.cycles = cr.cycles;

    const StatGroup &dram = sys_.dram().stats();
    out.dramReads = dram.get("reads");
    out.dramWrites = dram.get("writes");
    out.dramDemandReads =
        sys_.hierarchy(CoreId{0}).stats().get("dram_demand_reads");

    const StatGroup &llc = sys_.llc().stats();
    out.llcDemandAccesses = llc.get("demand_accesses");
    out.llcDemandHits = llc.get("demand_hits");
    out.llcDemandMisses = llc.get("demand_misses");
    out.llcVictimHits = llc.get("victim_hits");
    out.llcAccesses = llc.get("accesses");
    out.backInvalidations = llc.get("back_invalidations");
    return out;
}

} // namespace bvc
