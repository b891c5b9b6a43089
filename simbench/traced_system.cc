#include "traced_system.hh"

#include <algorithm>
#include <array>

#include "tracefile/file_trace_source.hh"

namespace simbench
{

using Clock = std::chrono::steady_clock;

namespace
{

/** Adds the lifetime of the scope to a span. */
class SpanTimer
{
  public:
    explicit SpanTimer(Span &span) : span_(span), start_(Clock::now()) {}

    ~SpanTimer()
    {
        span_.seconds +=
            std::chrono::duration<double>(Clock::now() - start_).count();
        ++span_.calls;
    }

    SpanTimer(const SpanTimer &) = delete;
    SpanTimer &operator=(const SpanTimer &) = delete;

  private:
    Span &span_;
    Clock::time_point start_;
};

} // namespace

std::size_t
TimedCompressor::compressedBytes(const std::uint8_t *line) const
{
    const SpanTimer timer(span_);
    return inner_.compressedBytes(line);
}

bvc::LlcResult
TimedLlc::access(bvc::Addr blk, bvc::AccessType type,
                 const std::uint8_t *data)
{
    const SpanTimer timer(span_);
    return inner_.access(blk, type, data);
}

void
TimedLlc::downgradeHint(bvc::Addr blk)
{
    const SpanTimer timer(span_);
    inner_.downgradeHint(blk);
}

std::size_t
TimedTrace::nextBlock(bvc::TraceRecord *out, std::size_t max)
{
    const SpanTimer timer(span_);
    const std::size_t n = inner_.nextBlock(out, max);
    records_ += n;
    return n;
}

TracedSystem::TracedSystem(const bvc::SystemConfig &cfg,
                           const bvc::TraceParams &trace)
    : cfg_(cfg),
      compressor_(bvc::makeCompressor(cfg.compressor)),
      timedCompressor_(*compressor_, spans_.compress),
      llc_(bvc::makeLlc(cfg, timedCompressor_)),
      timedLlc_(*llc_, spans_.llc),
      dram_(cfg.dramTiming, cfg.dramGeometry)
{
    cfg_.hier.llcInclusive = cfg.llcInclusive;
    bvc::OpenedTrace opened = bvc::openTrace(trace);
    trace_ = std::move(opened.source);
    timedTrace_ = std::make_unique<TimedTrace>(*trace_, spans_.trace,
                                               spans_.records);
    blockReader_.bind(*timedTrace_);
    mem_ = bvc::FunctionalMemory(
        [pattern = opened.pattern, &span = spans_.memInit](
            bvc::Addr blk, std::uint8_t *out) {
            const SpanTimer timer(span);
            pattern.fillLine(blk, out);
        });
    hier_ = std::make_unique<bvc::Hierarchy>(cfg_.hier, timedLlc_, dram_,
                                             mem_);
    core_ = std::make_unique<bvc::OooCore>(cfg.core, *hier_);
}

void
TracedSystem::steps(std::uint64_t count)
{
    // Records are pulled through the same block reader System uses, so
    // nextBlock is called at the same points of the stream; only the
    // stepping is batched so that one span covers a whole block.
    std::array<bvc::TraceRecord, bvc::TraceBlockReader::kBlockRecords>
        block;
    while (count > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(count, block.size()));
        std::size_t got = 0;
        while (got < want && blockReader_.next(block[got]))
            ++got;
        {
            const SpanTimer timer(spans_.step);
            for (std::size_t i = 0; i < got; ++i)
                core_->stepRecord(block[i]);
        }
        if (got < want)
            return; // trace exhausted, as System::run stops
        count -= got;
    }
}

bvc::RunResult
TracedSystem::run(std::uint64_t warmup, std::uint64_t measure)
{
    const Clock::time_point start = Clock::now();
    steps(warmup);

    llc_->resetStats();
    dram_.stats().resetAll();
    hier_->stats().resetAll();
    core_->stats().resetAll();
    core_->beginMeasurement();

    steps(measure);
    spans_.wallSeconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    return snapshot();
}

bvc::RunResult
TracedSystem::snapshot() const
{
    bvc::RunResult out;
    const bvc::CoreResult cr = core_->result();
    out.ipc = cr.ipc;
    out.instructions = cr.instructions;
    out.cycles = cr.cycles;

    const bvc::StatGroup &dram = dram_.stats();
    out.dramReads = dram.get("reads");
    out.dramWrites = dram.get("writes");
    out.dramDemandReads = hier_->stats().get("dram_demand_reads");

    const bvc::StatGroup &llc = llc_->stats();
    out.llcDemandAccesses = llc.get("demand_accesses");
    out.llcDemandHits = llc.get("demand_hits");
    out.llcDemandMisses = llc.get("demand_misses");
    out.llcVictimHits = llc.get("victim_hits");
    out.llcAccesses = llc.get("accesses");
    out.backInvalidations = llc.get("back_invalidations");
    return out;
}

} // namespace simbench
