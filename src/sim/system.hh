/**
 * @file
 * Single-core system: one trace on one 4-wide OOO core with private
 * L1I/L1D/L2, one of the LLC organizations under study, DRAM and
 * functional memory, run as warmup + measured instruction windows (the
 * paper's trace methodology, Section V). A front over a one-core
 * MultiCoreSystem, which does all the wiring and running.
 */

#ifndef BVC_SIM_SYSTEM_HH_
#define BVC_SIM_SYSTEM_HH_

#include <cstdint>

#include "sim/multicore.hh"
#include "sim/system_config.hh"

namespace bvc
{

/** Headline metrics of one measured window. */
struct RunResult
{
    double ipc = 0.0;              //!< instructions / cycles
    std::uint64_t instructions = 0; //!< retired in the window
    std::uint64_t cycles = 0;      //!< core cycles in the window

    std::uint64_t dramReads = 0;       //!< demand + prefetch reads
    std::uint64_t dramWrites = 0;      //!< memory writebacks
    std::uint64_t dramDemandReads = 0; //!< demand misses only

    std::uint64_t llcDemandAccesses = 0; //!< LLC loads + stores
    std::uint64_t llcDemandHits = 0;     //!< base or victim hits
    std::uint64_t llcDemandMisses = 0;   //!< demand misses to DRAM
    std::uint64_t llcVictimHits = 0;     //!< hits in the victim section
    std::uint64_t llcAccesses = 0;       //!< every LLC access type
    std::uint64_t backInvalidations = 0; //!< inclusion victims above
};

/**
 * One assembled single-core system: a one-core MultiCoreSystem in one
 * address space with no coherence directory. A file trace that runs
 * dry ends the run rather than looping. Thread safety: see
 * MultiCoreSystem.
 */
class System
{
  public:
    /** Assemble `cfg` around one core running `trace`. */
    System(const SystemConfig &cfg, const TraceParams &trace);

    /**
     * Run `warmup` unmeasured instructions, reset statistics, then run
     * `measure` instructions and report metrics for that window.
     */
    RunResult run(std::uint64_t warmup, std::uint64_t measure);

    /** The LLC under test. */
    Llc &llc() { return sys_.llc(); }
    /** Main memory. */
    Dram &dram() { return sys_.dram(); }
    /** The core's private L1I/L1D/L2. */
    Hierarchy &hierarchy() { return sys_.hierarchy(CoreId{0}); }
    /** The core. */
    OooCore &core() { return sys_.core(CoreId{0}); }

    /** Snapshot the RunResult counters from current statistics. */
    RunResult snapshot() const;

  private:
    MultiCoreSystem sys_;
};

} // namespace bvc

#endif // BVC_SIM_SYSTEM_HH_
