#include "cpu/hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace bvc
{

Hierarchy::Hierarchy(const HierarchyConfig &cfg, Llc &llc, Dram &dram,
                     FunctionalMemory &mem)
    : cfg_(cfg),
      llc_(llc),
      dram_(dram),
      mem_(mem),
      l1i_("l1i", cfg.l1iBytes, cfg.l1iWays, cfg.l1Repl, cfg.l1Latency),
      l1d_("l1d", cfg.l1dBytes, cfg.l1dWays, cfg.l1Repl, cfg.l1Latency),
      l2_("l2", cfg.l2Bytes, cfg.l2Ways, cfg.l2Repl, cfg.l2Latency),
      stats_("hier", kStats.names)
{
    // Single-core default: back-invalidations only concern this core.
    backInvalidate_ = [this](Addr blk) { return invalidateUpper(blk); };
}

void
Hierarchy::setBackInvalidateFn(std::function<bool(Addr)> fn)
{
    backInvalidate_ = std::move(fn);
}

void
Hierarchy::setCoherenceTouchFn(
    std::function<void(Addr, bool, Cycle)> fn)
{
    coherenceTouch_ = std::move(fn);
}

bool
Hierarchy::downgradeUpper(Addr blk)
{
    bool dirty = false;
    if (auto d = l1i_.downgrade(blk))
        dirty = dirty || *d;
    if (auto d = l1d_.downgrade(blk))
        dirty = dirty || *d;
    if (auto d = l2_.downgrade(blk))
        dirty = dirty || *d;
    return dirty;
}

bool
Hierarchy::invalidateUpper(Addr blk)
{
    bool dirty = false;
    if (auto d = l1i_.invalidate(blk))
        dirty = dirty || *d;
    if (auto d = l1d_.invalidate(blk))
        dirty = dirty || *d;
    if (auto d = l2_.invalidate(blk))
        dirty = dirty || *d;
    return dirty;
}

void
Hierarchy::handleLlcResult(const LlcResult &result, Cycle cycle)
{
    for (const Addr wb : result.memWritebacks) {
        dram_.write(wb, cycle);
        ++stats_[kStats["llc_writebacks"]];
    }
    for (const Addr blk : result.backInvalidations) {
        const bool dirtyAbove = backInvalidate_(blk);
        if (!dirtyAbove)
            continue;
        // A more recent dirty copy lived above the LLC; its data must
        // reach memory. Skip if the LLC already wrote this line back
        // (one writeback per line suffices; functional memory always
        // holds current data).
        const bool alreadyWritten =
            std::find(result.memWritebacks.begin(),
                      result.memWritebacks.end(),
                      blk) != result.memWritebacks.end();
        if (!alreadyWritten) {
            dram_.write(blk, cycle);
            ++stats_[kStats["back_inval_writebacks"]];
        }
    }
}

void
Hierarchy::handleL2Eviction(const Eviction &evicted, Cycle cycle)
{
    if (evicted.dirty) {
        // Dirty data moves down into the LLC.
        const LlcResult result =
            llc_.access(evicted.addr, AccessType::Writeback,
                        mem_.line(evicted.addr));
        panicIf(cfg_.llcInclusive && !result.hit,
                "L2 writeback missed the inclusive LLC");
        handleLlcResult(result, cycle);
        ++stats_[kStats["l2_writebacks"]];
    }
    // Hierarchy-aware replacement (CHAR) learns from L2 evictions.
    llc_.downgradeHint(evicted.addr);
}

void
Hierarchy::handleL1Eviction(const Eviction &evicted, Cycle cycle)
{
    if (!evicted.dirty)
        return;
    ++stats_[kStats["l1_writebacks"]];
    if (l1i_.probe(evicted.addr) || l1d_.probe(evicted.addr))
        return; // another L1 still holds it; keep it simple and rare
    if (l2_.probe(evicted.addr)) {
        std::optional<Eviction> none;
        l2_.access(evicted.addr, true, none);
        panicIf(none.has_value(),
                "L2 writeback hit must not evict");
        return;
    }
    // The L2 dropped the line earlier (it is non-inclusive of the L1s);
    // by LLC inclusion the LLC must still hold it.
    const LlcResult result = llc_.access(
        evicted.addr, AccessType::Writeback, mem_.line(evicted.addr));
    panicIf(cfg_.llcInclusive && !result.hit,
            "L1 writeback missed the inclusive LLC");
    handleLlcResult(result, cycle);
}

void
Hierarchy::prefetchLine(Addr blk, Cycle cycle, bool intoL2)
{
    if (intoL2 && l2_.probe(blk))
        return;

    // A prefetch that fills the private L2 makes this core a sharer;
    // LLC-only prefetches fill no private cache and need no touch.
    if (intoL2 && coherenceTouch_)
        coherenceTouch_(blk, /*isWrite=*/false, cycle);

    if (!llc_.probeBase(blk)) {
        // Victim-cache prefetch hits promote the line for free; real
        // misses fetch from memory in the background.
        const LlcResult result =
            llc_.access(blk, AccessType::Prefetch, mem_.line(blk));
        handleLlcResult(result, cycle);
        if (!result.hit) {
            dram_.prefetchRead(blk, cycle);
            ++stats_[kStats["dram_prefetch_reads"]];
        }
    }

    if (intoL2) {
        std::optional<Eviction> evicted;
        l2_.access(blk, false, evicted);
        if (evicted)
            handleL2Eviction(*evicted, cycle);
        ++stats_[kStats["l2_prefetch_fills"]];
    }
}

unsigned
Hierarchy::accessBelowL1(Addr pc, Addr blk, Cycle cycle, bool touched)
{
    // Gaining a private copy below the L1: register this core as a
    // sharer (and downgrade any remote modified owner) first. An L1
    // hit needs no read touch — a prior fill already registered us and
    // only an invalidation (which removes the L1 copy too) unregisters.
    if (coherenceTouch_ && !touched)
        coherenceTouch_(blk, /*isWrite=*/false, cycle);

    std::optional<Eviction> evicted;
    const bool l2Hit = l2_.access(blk, false, evicted);
    if (evicted)
        handleL2Eviction(*evicted, cycle);

    if (cfg_.prefetch) {
        prefetchScratch_.clear();
        l2Prefetcher_.observe(pc, blk, !l2Hit, prefetchScratch_);
        for (const Addr pa : prefetchScratch_)
            prefetchLine(pa, cycle, true);
    }

    if (l2Hit)
        return cfg_.l2Latency;

    const LlcResult result =
        llc_.access(blk, AccessType::Read, mem_.line(blk));
    handleLlcResult(result, cycle);
    // Per-core LLC demand view (the shared LLC's own counters cannot
    // attribute hits to cores; the never-worse acceptance test can).
    ++stats_[kStats["llc_demand_accesses"]];
    if (result.hit)
        ++stats_[kStats["llc_demand_hits"]];

    if (cfg_.prefetch) {
        prefetchScratch_.clear();
        llcPrefetcher_.observe(pc, blk, !result.hit, prefetchScratch_);
        for (const Addr pa : prefetchScratch_)
            prefetchLine(pa, cycle, false);
    }

    if (result.hit)
        return cfg_.llcLatency + result.extraLatency;

    ++stats_[kStats["dram_demand_reads"]];
    const Cycle arrival = cycle + cfg_.llcLatency + result.extraLatency;
    const Cycle done = dram_.read(blk, arrival);
    return static_cast<unsigned>(done - cycle);
}

unsigned
Hierarchy::load(Addr pc, Addr addr, Cycle cycle)
{
    const Addr blk = blockAddr(addr);
    ++stats_[kStats["loads"]];

    std::optional<Eviction> evicted;
    const bool hit = l1d_.access(blk, false, evicted);
    if (evicted)
        handleL1Eviction(*evicted, cycle);

    if (cfg_.prefetch) {
        l1PrefetchScratch_.clear();
        l1Prefetcher_.observe(pc, blk, !hit, l1PrefetchScratch_);
        // L1 prefetches must respect inclusion: fill the LLC and L2
        // first, then the L1.
        for (const Addr pa : l1PrefetchScratch_) {
            if (l1d_.probe(pa))
                continue;
            prefetchLine(pa, cycle, true);
            std::optional<Eviction> pfEvicted;
            l1d_.access(pa, false, pfEvicted);
            if (pfEvicted)
                handleL1Eviction(*pfEvicted, cycle);
        }
    }

    if (hit)
        return cfg_.l1Latency;
    return accessBelowL1(pc, blk, cycle);
}

unsigned
Hierarchy::store(Addr pc, Addr addr, std::uint64_t value, Cycle cycle)
{
    // Functional memory is the source of data truth and is updated at
    // store time; caches track dirtiness and compressed sizes only.
    mem_.store64(addr, value);

    const Addr blk = blockAddr(addr);
    ++stats_[kStats["stores"]];

    // Write permission must be acquired even on an L1 hit: a Shared
    // copy hits the L1 but other cores' copies must drop first (MSI
    // S->M upgrade).
    if (coherenceTouch_)
        coherenceTouch_(blk, /*isWrite=*/true, cycle);

    std::optional<Eviction> evicted;
    const bool hit = l1d_.access(blk, true, evicted);
    if (evicted)
        handleL1Eviction(*evicted, cycle);

    if (hit)
        return cfg_.l1Latency;
    // Write-allocate: fetch the line (read-for-ownership) from below;
    // the store's touch above already covers the coherence side.
    return accessBelowL1(pc, blk, cycle, /*touched=*/true);
}

unsigned
Hierarchy::fetch(Addr pc, Cycle cycle)
{
    const Addr blk = blockAddr(pc);
    ++stats_[kStats["fetches"]];

    std::optional<Eviction> evicted;
    const bool hit = l1i_.access(blk, false, evicted);
    // Instruction lines are never dirty; the eviction needs no action.
    if (hit)
        return cfg_.l1Latency;
    return accessBelowL1(pc, blk, cycle);
}

bool
Hierarchy::checkInclusion() const
{
    bool ok = true;
    const Cache *levels[] = {&l1i_, &l1d_, &l2_};
    for (const Cache *cache : levels) {
        cache->forEachLine([&](const CacheLine &line) {
            if (!llc_.probeBase(line.tag))
                ok = false;
        });
    }
    return ok;
}

} // namespace bvc
