/**
 * @file
 * The single-core simulator stack rebuilt from its public pieces, the
 * way System's constructor assembles it, with host-time spans at the
 * virtual seams between layers:
 *
 *   trace     TraceSource::nextBlock
 *   cpu       OooCore::stepRecord, timed a block of records at a time
 *   llc       Llc::access and Llc::downgradeHint
 *   compress  Compressor::compressedBytes
 *   memory    the FunctionalMemory line-init callback
 *
 * Each span is measured from outside the program, so the traced run
 * must reproduce the untraced System::run counter for counter; the
 * benchmark checks that on every job.
 */

#ifndef SIMBENCH_TRACED_SYSTEM_HH_
#define SIMBENCH_TRACED_SYSTEM_HH_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/system.hh"

namespace simbench
{

/** Host time and call count accumulated at one seam. */
struct Span
{
    double seconds = 0.0;    //!< summed host time inside the seam
    std::uint64_t calls = 0; //!< times the seam was crossed

    Span &operator+=(const Span &o)
    {
        seconds += o.seconds;
        calls += o.calls;
        return *this;
    }
};

/** Every span one traced run records. */
struct LayerSpans
{
    Span trace;    //!< TraceSource::nextBlock
    Span step;     //!< OooCore::stepRecord blocks (includes llc)
    Span llc;      //!< Llc::access + downgradeHint (includes compress)
    Span compress; //!< Compressor::compressedBytes
    Span memInit;  //!< FunctionalMemory line initialization
    double wallSeconds = 0.0; //!< the whole of run()
    std::uint64_t records = 0; //!< records delivered by the trace

    LayerSpans &operator+=(const LayerSpans &o)
    {
        trace += o.trace;
        step += o.step;
        llc += o.llc;
        compress += o.compress;
        memInit += o.memInit;
        wallSeconds += o.wallSeconds;
        records += o.records;
        return *this;
    }
};

/** Compressor wrapper timing the size-only path. */
class TimedCompressor final : public bvc::Compressor
{
  public:
    TimedCompressor(const bvc::Compressor &inner, Span &span)
        : inner_(inner), span_(span)
    {
    }

    bvc::CompressedBlock compress(const std::uint8_t *line) const override
    {
        return inner_.compress(line);
    }

    std::size_t compressedBytes(const std::uint8_t *line) const override;

    void decompress(const bvc::CompressedBlock &block,
                    std::uint8_t *out) const override
    {
        inner_.decompress(block, out);
    }

    std::string name() const override { return inner_.name(); }

    unsigned decompressionCycles(unsigned segments) const override
    {
        return inner_.decompressionCycles(segments);
    }

  private:
    const bvc::Compressor &inner_;
    Span &span_;
};

/** LLC wrapper timing accesses; everything else forwards. */
class TimedLlc final : public bvc::Llc
{
  public:
    TimedLlc(bvc::Llc &inner, Span &span)
        : Llc(inner.stats().name()), inner_(inner), span_(span)
    {
    }

    bvc::LlcResult access(bvc::Addr blk, bvc::AccessType type,
                          const std::uint8_t *data) override;
    void downgradeHint(bvc::Addr blk) override;

    bool probe(bvc::Addr blk) const override { return inner_.probe(blk); }
    bool probeBase(bvc::Addr blk) const override
    {
        return inner_.probeBase(blk);
    }
    bvc::LlcResult coherenceInvalidate(bvc::Addr blk) override
    {
        return inner_.coherenceInvalidate(blk);
    }
    void resetStats() override { inner_.resetStats(); }
    std::size_t validLines() const override { return inner_.validLines(); }
    std::string name() const override { return inner_.name(); }
    bvc::StatGroup &stats() override { return inner_.stats(); }
    const bvc::StatGroup &stats() const override { return inner_.stats(); }

  private:
    bvc::Llc &inner_;
    Span &span_;
};

/** Trace wrapper timing block decode/generation. */
class TimedTrace final : public bvc::TraceSource
{
  public:
    TimedTrace(bvc::TraceSource &inner, Span &span,
               std::uint64_t &records)
        : inner_(inner), span_(span), records_(records)
    {
    }

    bool next(bvc::TraceRecord &record) override
    {
        return nextBlock(&record, 1) == 1;
    }
    std::size_t nextBlock(bvc::TraceRecord *out, std::size_t max) override;
    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

  private:
    bvc::TraceSource &inner_;
    Span &span_;
    std::uint64_t &records_;
};

/**
 * One single-core system with layer spans. System's members appear in
 * System's order, each wrapped component followed by its wrapper, so
 * construction and teardown happen in the same order as in System.
 */
class TracedSystem
{
  public:
    TracedSystem(const bvc::SystemConfig &cfg,
                 const bvc::TraceParams &trace);

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    /** System::run with spans: same records, same reset boundary. */
    bvc::RunResult run(std::uint64_t warmup, std::uint64_t measure);

    const LayerSpans &spans() const { return spans_; }

    bvc::Llc &llc() { return timedLlc_; }
    bvc::Dram &dram() { return dram_; }
    bvc::Hierarchy &hierarchy() { return *hier_; }
    bvc::OooCore &core() { return *core_; }
    const bvc::FunctionalMemory &memory() const { return mem_; }

  private:
    /** Step up to `count` records, timing each block of steps. */
    void steps(std::uint64_t count);

    /** The RunResult fields, read exactly as System::snapshot does. */
    bvc::RunResult snapshot() const;

    LayerSpans spans_;
    bvc::SystemConfig cfg_;
    std::unique_ptr<bvc::Compressor> compressor_;
    TimedCompressor timedCompressor_;
    std::unique_ptr<bvc::Llc> llc_;
    TimedLlc timedLlc_;
    bvc::Dram dram_;
    std::unique_ptr<bvc::TraceSource> trace_;
    std::unique_ptr<TimedTrace> timedTrace_;
    bvc::TraceBlockReader blockReader_;
    bvc::FunctionalMemory mem_;
    std::unique_ptr<bvc::Hierarchy> hier_;
    std::unique_ptr<bvc::OooCore> core_;
};

} // namespace simbench

#endif // SIMBENCH_TRACED_SYSTEM_HH_
