#include "sim/multicore.hh"

#include <algorithm>
#include <limits>

#include "tracefile/file_trace_source.hh"
#include "util/logging.hh"

namespace bvc
{

namespace
{

/** Tile::stop of a core that has reached its retire target. */
constexpr std::uint64_t kReached = std::numeric_limits<std::uint64_t>::max();

} // namespace

double
MultiRunResult::weightedSpeedup(const MultiRunResult &base) const
{
    panicIf(ipc.size() != base.ipc.size(),
            "weightedSpeedup: core-count mismatch (" +
                std::to_string(ipc.size()) + " vs " +
                std::to_string(base.ipc.size()) +
                " threads); compare runs of the same mix");
    double sum = 0.0;
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        panicIf(base.ipc[i] <= 0.0, "weightedSpeedup: zero baseline IPC");
        sum += ipc[i] / base.ipc[i];
    }
    return sum / static_cast<double>(ipc.size());
}

MultiCoreSystem::MultiCoreSystem(const SystemConfig &cfg,
                                 std::span<const TraceParams> traces,
                                 const MultiCoreConfig &mc)
    : cfg_(cfg),
      mc_(mc),
      compressor_(makeCompressor(cfg.compressor)),
      dram_(cfg.dramTiming, cfg.dramGeometry)
{
    const std::size_t n = traces.size();
    panicIf(n == 0, "MultiCoreSystem: at least one trace required");
    cfg_.hier.llcInclusive = cfg.llcInclusive;
    llc_ = makeLlc(cfg, *compressor_);
    if (mc_.coherence != CoherenceKind::None)
        directory_ =
            std::make_unique<CoherenceDirectory>(mc_.coherence, n);

    tiles_.resize(n);

    // loopReplay: in a mix, a finite file trace must keep running
    // after its last record so early finishers keep contending
    // (Section V). A single core's file trace just ends the run.
    const bool loopReplay = n > 1;
    for (std::size_t i = 0; i < n; ++i) {
        Tile &tile = tiles_[i];
        // Disjoint 4TB address-space slices per thread: the threads
        // contend for LLC sets but never share lines. Shared-space
        // mode leaves the addresses alone — lines are genuinely shared
        // and the coherence directory (if any) arbitrates them.
        OpenedTrace opened = [&] {
            if (mc_.sharedAddressSpace)
                return openTrace(traces[i], loopReplay);
            TraceParams params = traces[i];
            params.addressOffset = static_cast<Addr>(i + 1) << 42;
            return openTrace(params, loopReplay);
        }();
        tile.trace = std::move(opened.source);
        tile.reader.bind(*tile.trace);
        // One functional memory per disjoint slice; a single one
        // (core 0's data pattern) when the address space is shared.
        if (!mc_.sharedAddressSpace || i == 0) {
            mems_.push_back(std::make_unique<FunctionalMemory>(
                [pattern = opened.pattern](Addr blk,
                                           std::uint8_t *out) {
                    pattern.fillLine(blk, out);
                }));
        }
        tile.hier = std::make_unique<Hierarchy>(cfg_.hier, *llc_, dram_,
                                                *mems_.back());
        tile.core = std::make_unique<OooCore>(cfg.core, *tile.hier);
        // LLC back-invalidations must reach every private cache that
        // may hold an inclusive copy.
        tile.hier->setBackInvalidateFn(
            [this](Addr blk) { return invalidatePrivateCopies(blk); });
        if (directory_) {
            tile.hier->setCoherenceTouchFn(
                [this, i](Addr blk, bool isWrite, Cycle cycle) {
                    const CoherenceAction action = isWrite
                        ? directory_->onWrite(CoreId{i}, blk)
                        : directory_->onRead(CoreId{i}, blk);
                    applyCoherenceAction(action, blk, cycle);
                });
        }
    }
}

bool
MultiCoreSystem::invalidatePrivateCopies(Addr blk)
{
    // Narrowed to the directory's sticky sharer superset when one
    // exists. Dirtiness is ORed into one bool, never reported per
    // hierarchy — handleLlcResult turns it into at most one memory
    // write (pinned by MultiCore.BackInvalidationWritesBackOncePerLine).
    const std::uint64_t mask =
        directory_ ? directory_->onLlcEviction(blk) : 0;
    bool dirty = false;
    for (std::size_t j = 0; j < tiles_.size(); ++j)
        if (!directory_ || ((mask >> j) & 1))
            dirty = tiles_[j].hier->invalidateUpper(blk) || dirty;
    return dirty;
}

void
MultiCoreSystem::flushToLlc(std::size_t i, Addr blk, Cycle cycle)
{
    FunctionalMemory &mem = *mems_[mc_.sharedAddressSpace ? 0 : i];
    // One writeback access drains the dirty upper-level data into the
    // shared LLC (one writeback per line: the LLC copy turns dirty and
    // reaches memory on its own eventual eviction).
    const LlcResult result =
        llc_->access(blk, AccessType::Writeback, mem.line(blk));
    panicIf(cfg_.llcInclusive && !result.hit,
            "coherence flush missed the inclusive LLC");
    tiles_[i].hier->handleLlcResult(result, cycle);
}

void
MultiCoreSystem::applyCoherenceAction(const CoherenceAction &action,
                                      Addr blk, Cycle cycle)
{
    // The sticky sharer superset may name cores that silently dropped
    // the block; downgradeUpper/invalidateUpper are no-ops there.
    for (std::size_t j = 0; j < tiles_.size(); ++j) {
        if ((action.downgrade >> j) & 1) {
            if (tiles_[j].hier->downgradeUpper(blk))
                flushToLlc(j, blk, cycle);
        }
        if ((action.invalidate >> j) & 1) {
            if (tiles_[j].hier->invalidateUpper(blk))
                flushToLlc(j, blk, cycle);
        }
    }
}

void
MultiCoreSystem::snoopInvalidate(Addr blk)
{
    Cycle now = 0;
    for (const Tile &tile : tiles_)
        now = std::max(now, tile.core->currentCycle());
    const LlcResult result = llc_->coherenceInvalidate(blk);
    // Route the side effects (memory writeback of a dirty copy,
    // back-invalidation fan-out to the private caches) through the
    // shared handler; the fan-out also retires the directory entry.
    tiles_[0].hier->handleLlcResult(result, now);
    if (!result.backInvalidations.empty())
        return;
    // The LLC held no baseline copy of the block. With an inclusive
    // LLC no private copies exist either, but the sticky directory
    // superset (and the non-inclusive Base-Victim variant) may still
    // track stale holders; drop them too.
    if (invalidatePrivateCopies(blk))
        dram_.write(blk, now);
}

bool
MultiCoreSystem::burst(std::size_t pick, Cycle limit, std::uint64_t stop)
{
    TraceBlockReader &reader = tiles_[pick].reader;
    OooCore &core = *tiles_[pick].core;
    TraceRecord record;
    do {
        if (!reader.next(record)) {
            // Mix traces never run dry (generators are endless and
            // file traces loop), so only an empty file gets here.
            panicIf(tiles_.size() > 1,
                    "multicore trace ran dry (empty trace file?)");
            return false;
        }
        core.stepRecord(record);
    } while (core.currentCycle() < limit && core.retired() < stop);
    return true;
}

void
MultiCoreSystem::runPhase(std::uint64_t count, bool measured)
{
    // Always advance the lagging core (smallest local clock, lowest
    // index on ties): keeps the interleaving of shared-LLC accesses
    // approximately time-ordered. The core stays the lagging one while
    // its clock is below every other live core's clock (or equal to a
    // higher-index core's), so it runs in a burst up to that limit and
    // the O(N) scan happens once per burst, not once per instruction.
    // With one core the burst is the whole phase. The loop's per-core
    // state lives in the tiles, so it allocates nothing: a small
    // allocation in the middle of a run fragments the heap the
    // functional memory grows in, which cost a one-core run about 7%
    // more peak RSS.
    const std::size_t n = tiles_.size();
    for (Tile &tile : tiles_)
        tile.stop = tile.core->retired() + count;
    const auto clock = [&](std::size_t i) {
        return tiles_[i].core->currentCycle();
    };
    // Warmup stops a core at its count; measurement keeps it live.
    const auto live = [&](std::size_t i) {
        return measured || tiles_[i].stop != kReached;
    };
    std::size_t remaining = count > 0 ? n : 0;
    while (remaining > 0) {
        std::size_t pick = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (live(i) && (pick == n || clock(i) < clock(pick)))
                pick = i;
        }
        Cycle limit = std::numeric_limits<Cycle>::max();
        for (std::size_t j = 0; j < n; ++j) {
            if (j != pick && live(j))
                limit = std::min(limit, clock(j) + (j > pick ? 1 : 0));
        }
        Tile &tile = tiles_[pick];
        const bool dry = !burst(pick, limit, tile.stop);
        if (dry || tile.core->retired() >= tile.stop) {
            tile.stop = kReached;
            --remaining;
            if (measured)
                tile.result = tile.core->result();
        }
    }
}

MultiRunResult
MultiCoreSystem::run(std::uint64_t warmup, std::uint64_t measure)
{
    runPhase(warmup, false);

    // Statistics measure only the steady-state window; all cache, DRAM,
    // directory and core *state* persists across the boundary.
    llc_->resetStats();
    dram_.stats().resetAll();
    for (Tile &tile : tiles_) {
        tile.hier->stats().resetAll();
        tile.core->stats().resetAll();
        tile.core->beginMeasurement();
    }
    if (directory_)
        directory_->stats().resetAll();

    runPhase(measure, true);

    MultiRunResult result;
    for (const Tile &tile : tiles_) {
        result.ipc.push_back(tile.result.ipc);
        result.instructions.push_back(tile.result.instructions);
    }
    result.dramReads = dram_.stats().get("reads");
    result.dramWrites = dram_.stats().get("writes");
    result.llcDemandHits = llc_->stats().get("demand_hits");
    result.llcDemandMisses = llc_->stats().get("demand_misses");
    result.llcVictimHits = llc_->stats().get("victim_hits");
    return result;
}

} // namespace bvc
