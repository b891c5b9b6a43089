/**
 * @file
 * What a simulated machine is made of: the LLC organizations under
 * study, the SystemConfig every system is built from, and the LLC
 * factory. Definitions live in sim/system.cc; MultiCoreSystem
 * (sim/multicore.hh) assembles a machine from a SystemConfig, and
 * System (sim/system.hh) is its single-core front.
 */

#ifndef BVC_SIM_SYSTEM_CONFIG_HH_
#define BVC_SIM_SYSTEM_CONFIG_HH_

#include <cstddef>
#include <memory>

#include "compress/factory.hh"
#include "core/base_victim_cache.hh"
#include "core/llc_interface.hh"
#include "cpu/hierarchy.hh"
#include "cpu/ooo_core.hh"
#include "memory/dram.hh"

namespace bvc
{

/** LLC organizations selectable per run. */
enum class LlcArch
{
    Uncompressed,   //!< the baseline every figure normalizes to
    TwoTagNaive,    //!< Figure 6: partner-line victimization
    TwoTagModified, //!< Figure 7: ECM-inspired two-tag replacement
    BaseVictim,     //!< Figure 8+: the paper's proposal
    Vsc,            //!< functional VSC-2X capacity model (Section V)
    Dcc,            //!< functional DCC capacity model (Section II)
};

/** Printable architecture name. */
const char *llcArchName(LlcArch arch);

/** Complete system configuration. */
struct SystemConfig
{
    HierarchyConfig hier;      //!< private L1I/L1D/L2 of every core
    CoreConfig core;           //!< OOO core of every core
    DramTiming dramTiming;     //!< shared DRAM timing
    DramGeometry dramGeometry; //!< shared DRAM channels/banks/rows

    std::size_t llcBytes = 512 * 1024; //!< shared LLC capacity
    std::size_t llcWays = 16;          //!< shared LLC associativity
    LlcArch arch = LlcArch::Uncompressed; //!< LLC organization
    ReplacementKind llcRepl = ReplacementKind::Nru; //!< base policy
    /** Victim-cache replacement (Base-Victim only). */
    VictimReplKind victimRepl = VictimReplKind::Ecm;
    CompressorKind compressor = CompressorKind::Bdi; //!< LLC codec
    /** Compressed-size alignment in bytes: 4 (paper eval) or 8. */
    unsigned segmentQuantum = 4;
    /**
     * Inclusive LLC (the paper's evaluation). The non-inclusive
     * Section IV.B.3 variant is only supported with arch == BaseVictim.
     */
    bool llcInclusive = true;

    /**
     * Independently-locked, address-hashed LLC banks (power of two).
     * 1 keeps the historical monolithic cache. Banking partitions the
     * unbanked sets exactly (see core/banked_llc.hh), so contents and
     * aggregate statistics are identical at any bank count; >1 exists
     * for many-core scaling (per-bank locking).
     */
    std::size_t llcBanks = 1;

    /**
     * Fast configuration used by the benches: every capacity is the
     * paper's divided by 4 (2MB -> 512KB LLC), preserving all capacity
     * ratios; see DESIGN.md §4.
     */
    static SystemConfig benchDefaults();

    /** The paper's absolute Section V configuration (2MB 16-way LLC). */
    static SystemConfig paperDefaults();

    /** Scale the LLC (e.g. 1.5x for the "3MB" comparison points). The
     *  extra capacity is added as ways, like the paper's 24-way 3MB,
     *  and costs one extra cycle of latency. */
    SystemConfig withLlcScale(double factor) const;
};

/** Construct the configured LLC variant. */
std::unique_ptr<Llc> makeLlc(const SystemConfig &cfg,
                             const Compressor &comp);

} // namespace bvc

#endif // BVC_SIM_SYSTEM_CONFIG_HH_
