/**
 * @file
 * Per-core cache hierarchy: private L1I/L1D and unified L2 over a shared
 * (possibly compressed) inclusive LLC and DRAM. Reproduces the Section V
 * memory system: writeback caches at every level, LLC inclusive of the
 * core caches with back-invalidation, L2-eviction downgrade hints for
 * CHAR, and stream/stride prefetchers.
 *
 * The hierarchy is latency-on-access: each demand access walks the
 * levels, performs all fills/evictions/writebacks immediately, advances
 * the DRAM bank state, and returns the load-to-use latency the core
 * should charge.
 */

#ifndef BVC_CPU_HIERARCHY_HH_
#define BVC_CPU_HIERARCHY_HH_

#include <functional>
#include <memory>

#include "cache/cache.hh"
#include "core/llc_interface.hh"
#include "memory/dram.hh"
#include "memory/functional_memory.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"

namespace bvc
{

/** Configuration of the private levels (paper defaults, Section V). */
struct HierarchyConfig
{
    std::size_t l1iBytes = 32 * 1024; //!< L1 instruction cache capacity
    std::size_t l1iWays = 8;          //!< L1I associativity
    std::size_t l1dBytes = 32 * 1024; //!< L1 data cache capacity
    std::size_t l1dWays = 8;          //!< L1D associativity
    std::size_t l2Bytes = 256 * 1024; //!< private unified L2 capacity
    std::size_t l2Ways = 8;           //!< L2 associativity
    unsigned l1Latency = 3;   //!< load-to-use, cycles
    unsigned l2Latency = 10;  //!< load-to-use, cycles
    unsigned llcLatency = 24; //!< base latency; compressed adds extra
    bool prefetch = true;     //!< enable the L1/L2/LLC prefetchers
    /**
     * True (the paper's evaluation): the LLC is inclusive, so upper-
     * level writebacks must hit it. False: writeback misses allocate
     * in the LLC instead (Section IV.B.3 non-inclusive operation).
     */
    bool llcInclusive = true;
    ReplacementKind l1Repl = ReplacementKind::Lru; //!< L1I and L1D policy
    ReplacementKind l2Repl = ReplacementKind::Lru; //!< L2 policy
};

/** One core's private hierarchy bound to a shared LLC and DRAM. */
class Hierarchy
{
  public:
    /**
     * @param cfg  private-level configuration
     * @param llc  shared last-level cache (not owned)
     * @param dram shared main memory (not owned)
     * @param mem  functional memory backing this core's address space
     *             (not owned)
     */
    Hierarchy(const HierarchyConfig &cfg, Llc &llc, Dram &dram,
              FunctionalMemory &mem);

    /** Demand load at `cycle`; returns load-to-use latency in cycles. */
    unsigned load(Addr pc, Addr addr, Cycle cycle);

    /**
     * Demand store at `cycle`: updates functional memory, allocates
     * (RFO) on miss. Returns the fill latency (the core hides it behind
     * the store buffer but it is reported for statistics).
     */
    unsigned store(Addr pc, Addr addr, std::uint64_t value, Cycle cycle);

    /** Instruction fetch; returns fetch latency. */
    unsigned fetch(Addr pc, Cycle cycle);

    /**
     * Invalidate any L1/L2 copies of `blk` (LLC back-invalidation).
     * @return true if a dirty copy existed above (needs a memory write)
     */
    bool invalidateUpper(Addr blk);

    /**
     * Coherence downgrade: clear the dirty bits of any L1/L2 copies of
     * `blk` but keep them resident (MSI M->S on a remote read).
     * @return true if a dirty copy existed above (its data must be
     *         written back to the shared LLC by the caller)
     */
    bool downgradeUpper(Addr blk);

    /**
     * Handler invoked for every LLC back-invalidation. The single-core
     * system points it at this hierarchy; the multi-core system fans it
     * out to every core (the LLC is shared).
     */
    void setBackInvalidateFn(std::function<bool(Addr)> fn);

    /**
     * Coherence hook, invoked before this hierarchy gains (or writes) a
     * private copy of a block: every store (even on an L1 hit — a
     * Shared line needs write permission), every demand access that
     * goes below the L1, and every prefetch that fills the private L2.
     * The multi-core system points it at the CoherenceDirectory; unset
     * (the default, and all single-core runs) means no coherence layer.
     */
    void setCoherenceTouchFn(
        std::function<void(Addr, bool isWrite, Cycle)> fn);

    /** Route an LlcResult's side effects (writebacks, back-invals). */
    void handleLlcResult(const LlcResult &result, Cycle cycle);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    Cache &l1d() { return l1d_; }
    Cache &l1i() { return l1i_; }
    Cache &l2() { return l2_; }

    /** Inclusion check for tests: all L1/L2 lines are LLC base lines. */
    bool checkInclusion() const;

  private:
    /**
     * Shared L2-and-below path; returns load-to-use latency.
     * @param touched true if the caller already issued the coherence
     *                touch for this access (stores touch for write
     *                permission before the L1)
     */
    unsigned accessBelowL1(Addr pc, Addr blk, Cycle cycle,
                           bool touched = false);

    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "loads", "stores", "fetches", "llc_writebacks",
        "back_inval_writebacks", "l1_writebacks", "l2_writebacks",
        "dram_demand_reads", "dram_prefetch_reads", "l2_prefetch_fills",
        "llc_demand_accesses", "llc_demand_hits"};

    /** Process an L2 eviction: writeback or downgrade hint to the LLC. */
    void handleL2Eviction(const Eviction &evicted, Cycle cycle);

    /** Process an L1D eviction (dirty data moves into the L2 or LLC). */
    void handleL1Eviction(const Eviction &evicted, Cycle cycle);

    /** Issue one prefetch that fills the LLC (and optionally the L2). */
    void prefetchLine(Addr blk, Cycle cycle, bool intoL2);

    HierarchyConfig cfg_;
    Llc &llc_;
    Dram &dram_;
    FunctionalMemory &mem_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    StridePrefetcher l1Prefetcher_;
    StreamPrefetcher l2Prefetcher_;
    StreamPrefetcher llcPrefetcher_;
    std::function<bool(Addr)> backInvalidate_;
    std::function<void(Addr, bool, Cycle)> coherenceTouch_;
    std::vector<Addr> prefetchScratch_;
    /** L1 proposals: apart, so the fills they issue cannot clobber them. */
    std::vector<Addr> l1PrefetchScratch_;
    StatGroup stats_;
};

} // namespace bvc

#endif // BVC_CPU_HIERARCHY_HH_
