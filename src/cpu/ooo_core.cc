#include "cpu/ooo_core.hh"

#include <algorithm>

namespace bvc
{

OooCore::OooCore(const CoreConfig &cfg, Hierarchy &hierarchy)
    : cfg_(cfg),
      hier_(hierarchy),
      rob_(cfg.robSize, 0),
      stats_("core", kStats.names)
{
}

bool
OooCore::step(TraceSource &source)
{
    TraceRecord record;
    if (!source.next(record))
        return false;
    stepRecord(record);
    return true;
}

void
OooCore::stepRecord(const TraceRecord &record)
{
    // --- Fetch: 4-wide, stalls when the ROB slot is still in flight ---
    const std::size_t slot = retired_ % rob_.size();
    Cycle fetch = fetchCycle_;
    if (rob_[slot] > fetch) {
        // ROB full: the window cannot advance past an incomplete
        // instruction robSize entries back.
        fetch = rob_[slot];
        fetchCycle_ = fetch;
        slotInCycle_ = 0;
        ++stats_[kStats["rob_stall_events"]];
    }

    // Model instruction fetch once per new line of code.
    if (cfg_.modelIfetch) {
        const Addr fetchBlk = blockAddr(record.pc);
        if (fetchBlk != lastFetchBlock_) {
            lastFetchBlock_ = fetchBlk;
            const unsigned lat = hier_.fetch(record.pc, fetch);
            // Fetch latency beyond the L1I delays this instruction's
            // dispatch; the front end hides the common 3-cycle case.
            if (lat > hier_.l1i().latency())
                fetch += lat - hier_.l1i().latency();
        }
    }

    Cycle complete = fetch + cfg_.nonMemLatency;
    switch (record.kind) {
      case InstrKind::Load: {
        Cycle issue = fetch;
        if (record.dependsOnPrevLoad)
            issue = std::max(issue, lastLoadComplete_);
        const unsigned latency = hier_.load(record.pc, record.addr,
                                            issue);
        complete = issue + latency;
        lastLoadComplete_ = complete;
        ++stats_[kStats["loads"]];
        stats_[kStats["load_latency_sum"]] += latency;
        break;
      }
      case InstrKind::Store:
        // Stores drain from the store buffer without stalling retire;
        // the cache access still happens (and has timing side effects).
        hier_.store(record.pc, record.addr, record.value, fetch);
        complete = fetch + 1;
        ++stats_[kStats["stores"]];
        break;
      case InstrKind::NonMem:
        break;
    }

    rob_[slot] = complete;
    maxComplete_ = std::max(maxComplete_, complete);
    ++retired_;

    // Advance the fetch clock: fetchWidth instructions per cycle.
    if (++slotInCycle_ >= cfg_.fetchWidth) {
        slotInCycle_ = 0;
        ++fetchCycle_;
    }
}

CoreResult
OooCore::run(TraceSource &source, std::uint64_t count)
{
    beginMeasurement();
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!step(source))
            break;
    }
    return result();
}

void
OooCore::beginMeasurement()
{
    measureStartInstr_ = retired_;
    measureStartCycle_ = std::max(fetchCycle_, maxComplete_);
}

CoreResult
OooCore::result() const
{
    CoreResult out;
    out.instructions = retired_ - measureStartInstr_;
    const Cycle end = std::max(fetchCycle_, maxComplete_);
    out.cycles = end > measureStartCycle_ ? end - measureStartCycle_ : 1;
    out.ipc = static_cast<double>(out.instructions) /
              static_cast<double>(out.cycles);
    return out;
}

} // namespace bvc
