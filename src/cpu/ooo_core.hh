/**
 * @file
 * Trace-driven out-of-order core timing model: a 4 GHz, 4-wide
 * dynamically scheduled core in the spirit of the paper's Section V
 * configuration. The model keeps a sliding reorder-buffer window of
 * completion times:
 *
 *   - instructions are fetched fetchWidth per cycle, stalling when the
 *     ROB entry to be reused has not completed (ROB-full stall);
 *   - independent loads overlap freely within the window (memory-level
 *     parallelism); a load flagged dependsOnPrevLoad issues only after
 *     the previous load completes (pointer chasing);
 *   - stores retire through a store buffer without blocking;
 *   - IPC = retired instructions / elapsed cycles.
 *
 * This captures exactly the core behaviours the LLC study exercises:
 * sensitivity to average load latency, miss overlap, and window stalls
 * on long-latency misses.
 */

#ifndef BVC_CPU_OOO_CORE_HH_
#define BVC_CPU_OOO_CORE_HH_

#include <vector>

#include "cpu/hierarchy.hh"
#include "cpu/trace.hh"
#include "util/stats.hh"

namespace bvc
{

/** Core parameters (paper-inspired defaults). */
struct CoreConfig
{
    unsigned fetchWidth = 4;    //!< instructions fetched per cycle
    unsigned robSize = 224;     //!< reorder-buffer entries
    unsigned nonMemLatency = 1; //!< cycles for a non-memory instruction
    /** Model instruction fetch through the L1I (small extra cost). */
    bool modelIfetch = true;
};

/** Result of a (partial) run. */
struct CoreResult
{
    std::uint64_t instructions = 0; //!< instructions retired
    Cycle cycles = 0;               //!< cycles elapsed
    double ipc = 0.0;               //!< instructions / cycles
};

/** Sliding-window OOO core bound to one hierarchy. */
class OooCore
{
  public:
    OooCore(const CoreConfig &cfg, Hierarchy &hierarchy);

    /**
     * Execute one instruction from `source`.
     * @return false if the trace is exhausted
     */
    bool step(TraceSource &source);

    /**
     * Execute one already-decoded instruction (the block-buffered
     * System path: decode happens a block at a time upstream).
     */
    void stepRecord(const TraceRecord &record);

    /**
     * Run `count` instructions (or to trace end) and report IPC over
     * exactly that span.
     */
    CoreResult run(TraceSource &source, std::uint64_t count);

    /**
     * Mark the measurement start here: instructions/cycles retired so
     * far become warmup and are excluded from result().
     */
    void beginMeasurement();

    /** IPC and counts since beginMeasurement() (or construction). */
    CoreResult result() const;

    /** Current core clock (grows as instructions execute). */
    Cycle currentCycle() const { return fetchCycle_; }

    std::uint64_t retired() const { return retired_; }

    StatGroup &stats() { return stats_; }

  private:
    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "rob_stall_events", "loads", "load_latency_sum", "stores"};

    CoreConfig cfg_;
    Hierarchy &hier_;

    std::vector<Cycle> rob_;  //!< completion cycle per ROB slot
    std::uint64_t retired_ = 0;
    Cycle fetchCycle_ = 0;
    unsigned slotInCycle_ = 0;
    Cycle lastLoadComplete_ = 0;
    Cycle maxComplete_ = 0;
    Addr lastFetchBlock_ = ~static_cast<Addr>(0);

    std::uint64_t measureStartInstr_ = 0;
    Cycle measureStartCycle_ = 0;

    StatGroup stats_;
};

} // namespace bvc

#endif // BVC_CPU_OOO_CORE_HH_
