/**
 * @file
 * The one system assembly (Section V / VI.C): N cores with private
 * L1/L2 hierarchies over one shared LLC and DRAM, one single-threaded
 * trace per core. By default each trace runs in a disjoint
 * address-space slice (the paper's multiprogram methodology);
 * sharedAddressSpace mode keeps all cores in one address space with an
 * optional MSI/MESI directory (src/coherence/) keeping the private
 * caches coherent. Threads that finish their measured window keep
 * running so shared-LLC contention stays realistic ("If a thread
 * finishes its performance simulation phase early, it continues
 * executing..."). The single-core System (sim/system.hh) is a front
 * over a one-core instance.
 */

#ifndef BVC_SIM_MULTICORE_HH_
#define BVC_SIM_MULTICORE_HH_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coherence/coherence.hh"
#include "memory/functional_memory.hh"
#include "sim/system_config.hh"
#include "trace/generators.hh"

namespace bvc
{

/** Per-thread and aggregate results of one mix run. */
struct MultiRunResult
{
    std::vector<double> ipc;                //!< per core, measured window
    std::vector<std::uint64_t> instructions; //!< per core, at the snapshot
    std::uint64_t dramReads = 0;            //!< demand + prefetch reads
    std::uint64_t dramWrites = 0;           //!< memory writebacks
    std::uint64_t llcDemandHits = 0;        //!< shared LLC, all cores
    std::uint64_t llcDemandMisses = 0;      //!< shared LLC, all cores
    std::uint64_t llcVictimHits = 0;        //!< Base-Victim victim hits

    /**
     * Normalized weighted speedup vs a baseline run of the same mix:
     * mean over threads of ipc[i]/base.ipc[i] (Section VI.C metric).
     * Panics if `base` ran a different core count.
     */
    double weightedSpeedup(const MultiRunResult &base) const;
};

/** Multi-core knobs beyond the shared SystemConfig. */
struct MultiCoreConfig
{
    /**
     * Coherence protocol for the private hierarchies. None (the
     * default, and the only option for disjoint address spaces) keeps
     * the historical behavior: LLC back-invalidations broadcast to
     * every core and no directory exists.
     */
    CoherenceKind coherence = CoherenceKind::None;
    /**
     * False (default): each core's trace runs in a disjoint 4TB
     * address-space slice (cores contend for LLC sets, never share
     * lines). True: all cores run in one address space backed by one
     * functional memory — lines are genuinely shared and a coherence
     * protocol should be enabled.
     */
    bool sharedAddressSpace = false;
};

/**
 * N cores sharing one LLC and DRAM.
 *
 * Thread-safety contract (relied on by the sweep engine in
 * src/runner/): a MultiCoreSystem exclusively owns every component it
 * wires together — compressor, LLC, DRAM, directory, trace sources,
 * functional memory, hierarchies, cores — and steps its simulated cores
 * on ONE host thread. The library keeps no global mutable state: no
 * global or static RNG (every generator and random policy owns an Rng
 * seeded from its parameters), no static counters, no caches behind
 * the factories. Distinct instances may therefore run concurrently on
 * different host threads with no synchronization. A single instance is
 * NOT internally synchronized; never share one across threads. Shared
 * inputs (SystemConfig, TraceParams, WorkloadSuite) are treated as
 * read-only. Any future component that adds static mutable state
 * breaks this contract, and the CI ThreadSanitizer job
 * (BVC_SANITIZE=thread) is there to catch it.
 */
class MultiCoreSystem
{
  public:
    /**
     * @param cfg    shared system configuration (LLC arch under test)
     * @param traces one single-threaded trace per core; the core count
     *               is traces.size() (1..64 with a directory, any
     *               nonzero count without)
     * @param mc     coherence / address-space configuration
     */
    MultiCoreSystem(const SystemConfig &cfg,
                    std::span<const TraceParams> traces,
                    const MultiCoreConfig &mc = {});

    // The hierarchies' hooks point back at this instance.
    MultiCoreSystem(const MultiCoreSystem &) = delete;
    MultiCoreSystem &operator=(const MultiCoreSystem &) = delete;

    /**
     * Run `warmup` instructions per thread, reset statistics, then
     * measure until every thread has retired `measure` instructions
     * (early finishers keep executing). Per-thread IPC snapshots are
     * taken the moment each thread crosses its target. A one-core
     * file trace that runs dry ends the run there; in a mix, file
     * traces loop.
     */
    MultiRunResult run(std::uint64_t warmup, std::uint64_t measure);

    /**
     * External-agent (DMA / remote-node) snoop: drop every cached copy
     * of `blk` — LLC base and victim sections and all private caches —
     * writing dirty data back to memory. Deterministic driver for the
     * coherence-invalidation paths (tests, bvfuzz).
     */
    void snoopInvalidate(Addr blk);

    /** The shared LLC. */
    Llc &llc() { return *llc_; }
    /** The shared LLC (read-only). */
    const Llc &llc() const { return *llc_; }
    /** Main memory. */
    Dram &dram() { return dram_; }
    /** Main memory (read-only). */
    const Dram &dram() const { return dram_; }
    /** Core `i`'s private L1I/L1D/L2. */
    Hierarchy &hierarchy(CoreId i) { return *tiles_[i.get()].hier; }
    /** Core `i`'s private L1I/L1D/L2 (read-only). */
    const Hierarchy &hierarchy(CoreId i) const
    {
        return *tiles_[i.get()].hier;
    }
    /** Core `i`. */
    OooCore &core(CoreId i) { return *tiles_[i.get()].core; }
    /** Core `i` (read-only). */
    const OooCore &core(CoreId i) const { return *tiles_[i.get()].core; }
    /** Number of cores (= traces passed to the constructor). */
    [[nodiscard]] std::size_t numCores() const { return tiles_.size(); }
    /** The MSI/MESI directory; null when coherence == None. */
    CoherenceDirectory *directory() { return directory_.get(); }

  private:
    /** One core and everything private to it. */
    struct Tile
    {
        std::unique_ptr<TraceSource> trace; //!< the core's trace
        /** Block-buffered decode boundary: records are pulled through
         *  here so trace decode happens kBlockRecords at a time. */
        TraceBlockReader reader;
        std::unique_ptr<Hierarchy> hier; //!< private L1I/L1D/L2
        std::unique_ptr<OooCore> core;   //!< bound to `hier`
        /** runPhase's retire target; all ones once it is reached. */
        std::uint64_t stop = 0;
        /** The core's result where it crossed its measured window. */
        CoreResult result;
    };

    /**
     * The one run loop, shared by warmup and the measured window: run
     * until every core has retired `count` more instructions. In the
     * `measured` window, cores that reach their count keep running and
     * their result is snapshotted there; in warmup they stop.
     */
    void runPhase(std::uint64_t count, bool measured);

    /**
     * Step core `pick` while its clock stays below `limit` and it has
     * retired fewer than `stop` instructions.
     * @return false if its trace ran dry (one-core file replay only)
     */
    bool burst(std::size_t pick, Cycle limit, std::uint64_t stop);

    /**
     * Drop `blk` from the private caches that may hold it: the
     * directory's sharer superset, or every core without a directory.
     * @return true if any dropped copy was dirty
     */
    bool invalidatePrivateCopies(Addr blk);

    /** Invalidate/downgrade remote private copies per the directory. */
    void applyCoherenceAction(const CoherenceAction &action, Addr blk,
                              Cycle cycle);

    /** Flush core `i`'s dirty upper-level data into the shared LLC. */
    void flushToLlc(std::size_t i, Addr blk, Cycle cycle);

    SystemConfig cfg_;
    MultiCoreConfig mc_;
    std::unique_ptr<Compressor> compressor_;
    std::unique_ptr<Llc> llc_;
    Dram dram_;
    std::unique_ptr<CoherenceDirectory> directory_;
    /** One per disjoint slice; only [0] in a shared address space. */
    std::vector<std::unique_ptr<FunctionalMemory>> mems_;
    std::vector<Tile> tiles_;
};

} // namespace bvc

#endif // BVC_SIM_MULTICORE_HH_
