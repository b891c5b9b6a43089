#include "core/vsc_cache.hh"

#include "util/logging.hh"

namespace bvc
{

VscLlc::VscLlc(std::size_t sizeBytes, std::size_t physWays,
               const Compressor &comp)
    : Llc("llc", kStats.names),
      sets_(cacheSetCount(sizeBytes, physWays, "VSC")),
      physWays_(physWays),
      tagsPerSet_(physWays * 2),
      tags_(sets_, physWays * 2),
      comp_(comp)
{
    repl_ = std::make_unique<LruPolicy>(sets_, tagsPerSet_);
}

SetIdx
VscLlc::setIndex(Addr blk) const
{
    return SetIdx{(blk >> kLineShift) & (sets_ - 1)};
}

std::optional<WayIdx>
VscLlc::findSlot(SetIdx set, Addr blk) const
{
    return tags_.find(set, blk);
}

SegCount
VscLlc::usedSegments(SetIdx set) const
{
    SegCount used{0};
    for (const WayIdx s : indexRange<WayIdx>(tagsPerSet_)) {
        if (tags_.valid(set, s))
            used += tags_.segments(set, s);
    }
    return used;
}

void
VscLlc::evictSlot(SetIdx set, WayIdx victim, LlcResult &result)
{
    if (tags_.dirty(set, victim)) {
        result.memWritebacks.push_back(tags_.tag(set, victim));
        ++stats_[kStats["mem_writebacks"]];
    }
    result.backInvalidations.push_back(tags_.tag(set, victim));
    tags_.invalidate(set, victim);
    repl_->onInvalidate(set, victim);
    ++stats_[kStats["evictions"]];
}

LlcResult
VscLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    if (const std::optional<WayIdx> s = findSlot(set, blk)) {
        evictSlot(set, *s, result);
        ++stats_[kStats["coherence_invalidations"]];
    }
    return result;
}

LlcResult
VscLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> s = findSlot(set, blk);
    const bool demand = type == AccessType::Read;

    ++stats_[kStats["accesses"]];
    if (demand)
        ++stats_[kStats["demand_accesses"]];

    const SegCount capacity{physWays_ * kSegmentsPerLine};

    if (s) {
        result.hit = true;
        if (type == AccessType::Writeback) {
            ++stats_[kStats["writeback_hits"]];
            tags_.setDirty(set, *s, true);
            // A grown line may force evictions to stay within capacity;
            // this is VSC's re-compaction overhead (drawback 1, Sec II).
            tags_.setSegments(set, *s,
                              compressedSegmentsFor(comp_, data));
            while (usedSegments(set) > capacity) {
                for (const WayIdx victim : repl_->rank(set)) {
                    if (!tags_.valid(set, victim) || victim == *s)
                        continue;
                    evictSlot(set, victim, result);
                    break;
                }
            }
            ++stats_[kStats["recompactions"]];
        } else if (demand) {
            ++stats_[kStats["demand_hits"]];
            repl_->onHit(set, *s);
        } else {
            ++stats_[kStats["prefetch_hits"]];
        }
        return result;
    }

    if (type == AccessType::Writeback)
        panic("VscLlc: writeback miss violates inclusion");

    if (demand)
        ++stats_[kStats["demand_misses"]];
    else
        ++stats_[kStats["prefetch_misses"]];

    const SegCount segments = compressedSegmentsFor(comp_, data);

    // Find a free tag slot.
    std::optional<WayIdx> fillSlot = tags_.firstInvalid(set);

    // Evict in LRU order until both a tag and enough segments free up
    // (drawback 3 of Section II: multiple evictions per fill).
    lastFillEvictions_ = 0;
    while (!fillSlot || usedSegments(set) + segments > capacity) {
        std::optional<WayIdx> victim;
        for (const WayIdx cand : repl_->rank(set)) {
            if (tags_.valid(set, cand)) {
                victim = cand;
                break;
            }
        }
        panicIf(!victim, "VscLlc: nothing left to evict");
        evictSlot(set, *victim, result);
        ++lastFillEvictions_;
        if (!fillSlot)
            fillSlot = victim;
    }
    stats_[kStats["fill_evictions"]] += lastFillEvictions_;
    if (lastFillEvictions_ > 1)
        ++stats_[kStats["multi_evict_fills"]];

    CacheLine fill;
    fill.tag = blk;
    fill.valid = true;
    fill.dirty = false;
    fill.segments = segments;
    tags_.install(set, *fillSlot, fill);
    repl_->onFill(set, *fillSlot);
    ++stats_[kStats["fills"]];
    return result;
}

bool
VscLlc::probe(Addr blk) const
{
    return findSlot(setIndex(blk), blk).has_value();
}

std::size_t
VscLlc::validLines() const
{
    return tags_.validCount();
}

std::string
VscLlc::checkSetInvariants(SetIdx set) const
{
    const SegCount capacity{physWays_ * kSegmentsPerLine};
    if (usedSegments(set) > capacity)
        return "segment pool over budget: " +
            std::to_string(usedSegments(set).get()) + " > " +
            std::to_string(capacity.get());
    for (const WayIdx s : indexRange<WayIdx>(tagsPerSet_)) {
        const CacheLine line = tags_.line(set, s);
        if (!line.valid)
            continue;
        if (line.segments > kFullLineSegments)
            return "line exceeds 16 segments in slot " +
                std::to_string(s.get());
        for (WayIdx other{s.get() + 1}; other.get() < tagsPerSet_;
             ++other) {
            if (tags_.valid(set, other) &&
                tags_.tag(set, other) == line.tag)
                return "duplicate tag in slots " +
                    std::to_string(s.get()) + " and " +
                    std::to_string(other.get());
        }
    }
    return {};
}

} // namespace bvc
