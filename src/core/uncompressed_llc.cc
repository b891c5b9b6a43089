#include "core/uncompressed_llc.hh"

#include <algorithm>

#include "util/logging.hh"

namespace bvc
{

UncompressedLlc::UncompressedLlc(std::size_t sizeBytes, std::size_t ways,
                                 ReplacementKind repl)
    : Llc("llc", kStats.names),
      sets_(cacheSetCount(sizeBytes, ways, "LLC")),
      ways_(ways),
      tags_(sets_, ways_)
{
    repl_ = makeReplacement(repl, sets_, ways_);
}

SetIdx
UncompressedLlc::setIndex(Addr blk) const
{
    return SetIdx{(blk >> kLineShift) & (sets_ - 1)};
}

LlcResult
UncompressedLlc::access(Addr blk, AccessType type, const std::uint8_t *)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> way = findWay(set, blk);
    const bool demand = type == AccessType::Read;

    ++stats_[kStats["accesses"]];
    if (demand)
        ++stats_[kStats["demand_accesses"]];

    if (way) {
        // Hit. Only demand accesses promote; writebacks just set dirty.
        result.hit = true;
        if (type == AccessType::Writeback) {
            tags_.setDirty(set, *way, true);
            ++stats_[kStats["writeback_hits"]];
        } else if (demand) {
            repl_->onHit(set, *way);
            ++stats_[kStats["demand_hits"]];
        } else {
            ++stats_[kStats["prefetch_hits"]];
        }
        return result;
    }

    if (type == AccessType::Writeback) {
        // Inclusive hierarchy: the L2 can only hold lines the LLC holds.
        panic("UncompressedLlc: writeback miss violates inclusion");
    }

    if (demand)
        ++stats_[kStats["demand_misses"]];
    else
        ++stats_[kStats["prefetch_misses"]];

    // Fill: invalid way first, then the policy's victim.
    std::optional<WayIdx> fillWay = tags_.firstInvalid(set);
    if (!fillWay)
        fillWay = repl_->victim(set);

    if (tags_.valid(set, *fillWay)) {
        const Addr victimTag = tags_.tag(set, *fillWay);
        ++stats_[kStats["evictions"]];
        if (tags_.dirty(set, *fillWay)) {
            result.memWritebacks.push_back(victimTag);
            ++stats_[kStats["mem_writebacks"]];
        }
        result.backInvalidations.push_back(victimTag);
        ++stats_[kStats["back_invalidations"]];
    }

    CacheLine fill;
    fill.tag = blk;
    fill.valid = true;
    fill.dirty = false;
    fill.segments = kFullLineSegments;
    tags_.install(set, *fillWay, fill);
    repl_->onFill(set, *fillWay);
    ++stats_[kStats["fills"]];
    return result;
}

LlcResult
UncompressedLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> way = findWay(set, blk);
    if (!way)
        return result;
    if (tags_.dirty(set, *way)) {
        result.memWritebacks.push_back(blk);
        ++stats_[kStats["mem_writebacks"]];
    }
    result.backInvalidations.push_back(blk);
    ++stats_[kStats["back_invalidations"]];
    tags_.invalidate(set, *way);
    repl_->onInvalidate(set, *way);
    ++stats_[kStats["coherence_invalidations"]];
    return result;
}

bool
UncompressedLlc::probe(Addr blk) const
{
    return findWay(setIndex(blk), blk).has_value();
}

void
UncompressedLlc::downgradeHint(Addr blk)
{
    const SetIdx set = setIndex(blk);
    if (const std::optional<WayIdx> way = findWay(set, blk))
        repl_->downgradeHint(set, *way);
}

std::size_t
UncompressedLlc::validLines() const
{
    return tags_.validCount();
}

std::vector<Addr>
UncompressedLlc::setContents(SetIdx set) const
{
    std::vector<Addr> contents;
    for (const WayIdx w : indexRange<WayIdx>(ways_)) {
        if (tags_.valid(set, w))
            contents.push_back(tags_.tag(set, w));
    }
    std::sort(contents.begin(), contents.end());
    return contents;
}

} // namespace bvc
