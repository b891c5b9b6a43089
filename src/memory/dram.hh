/**
 * @file
 * Main-memory model: two channels of DDR3-1600 with 15-15-15-34
 * (tCL-tRCD-tRP-tRAS) timing, eight banks per channel with open-row
 * buffers, and a shared per-channel data bus (Section V configuration).
 *
 * The model is request-level: each read/write computes its completion
 * time against the current bank and bus state and advances that state,
 * capturing row-buffer locality, bank-level parallelism and bus
 * serialization without a full command scheduler.
 */

#ifndef BVC_MEMORY_DRAM_HH_
#define BVC_MEMORY_DRAM_HH_

#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace bvc
{

/** DDR3 timing parameters in memory-clock cycles. */
struct DramTiming
{
    unsigned tCl = 15;    //!< CAS latency
    unsigned tRcd = 15;   //!< RAS-to-CAS delay
    unsigned tRp = 15;    //!< row precharge
    unsigned tRas = 34;   //!< row active time
    unsigned tBurst = 4;  //!< BL8 burst occupancy of the data bus
    /**
     * Core cycles per memory-clock cycle: 4 GHz core over an 800 MHz
     * DDR3-1600 memory clock.
     */
    unsigned coreClockMultiplier = 5;
};

/**
 * Geometry and address mapping of the memory system. The mapping is
 * row:bank:column:channel (low-order line interleave across channels,
 * column bits below the bank bits), the standard layout that lets
 * sequential line bursts stay within one open row per channel.
 */
struct DramGeometry
{
    unsigned channels = 2;        //!< independent channels
    unsigned banksPerChannel = 8; //!< banks per channel
    /**
     * log2 of the per-channel row-buffer span in bytes of the flat
     * address space: bits [6, columnShift) select the column, so a
     * sequential region of 2^columnShift bytes maps to one row per
     * channel (8KB rows -> 16KB span with 2 channels).
     */
    unsigned columnShift = 14;
};

/** Two-channel DDR3 main memory. All times are in core cycles. */
class Dram
{
  public:
    Dram(const DramTiming &timing = {}, const DramGeometry &geometry = {});

    /**
     * Issue a demand or prefetch read for the line at `blk`.
     * @param blk   block-aligned address
     * @param cycle core cycle at which the request reaches memory
     * @return core cycle at which the critical word is available
     */
    [[nodiscard]] Cycle read(Addr blk, Cycle cycle);

    /**
     * Issue a writeback. Writes are posted (the requester does not
     * wait) but still occupy the bank and bus, creating contention.
     */
    void write(Addr blk, Cycle cycle);

    /**
     * Issue a hardware-prefetch read. The controller schedules
     * prefetches strictly below demand priority in idle slots, so the
     * model counts them (and lets them update row-buffer state) without
     * adding them to the bank/bus occupancy demands contend for.
     */
    void prefetchRead(Addr blk, Cycle cycle);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Channel index for an address (tests). */
    unsigned channelOf(Addr blk) const;
    /** Bank index within the channel (tests). */
    unsigned bankOf(Addr blk) const;
    /** Row index within the bank (tests). */
    std::uint64_t rowOf(Addr blk) const;

  private:
    /** Counter names, declared once; index with kStats["name"]. */
    static constexpr StatNames kStats{
        "row_hits", "row_closed", "row_conflicts", "reads", "writes",
        "prefetch_reads", "busy_cycles"};

    struct Bank
    {
        bool rowOpen = false;      //!< a row is latched in the buffer
        std::uint64_t openRow = 0; //!< that row, valid when rowOpen
        Cycle readyCycle = 0;      //!< bank free for a new command
        Cycle activateCycle = 0;   //!< when the open row was activated
    };

    /** Common read/write service path; returns data-available cycle. */
    Cycle service(Addr blk, Cycle cycle, bool isWrite);

    DramTiming timing_;
    DramGeometry geometry_;
    std::vector<Bank> banks_;        // channels x banks
    std::vector<Cycle> busReady_;    // per channel
    StatGroup stats_;
};

} // namespace bvc

#endif // BVC_MEMORY_DRAM_HH_
