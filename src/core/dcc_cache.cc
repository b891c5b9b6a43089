#include "core/dcc_cache.hh"

#include "util/logging.hh"

namespace bvc
{

DccLlc::DccLlc(std::size_t sizeBytes, std::size_t physWays,
               const Compressor &comp)
    : Llc("llc", kStats.names),
      sets_(cacheSetCount(sizeBytes, physWays, "DCC")),
      physWays_(physWays),
      tags_(sets_ * physWays, kInvalidTag),
      subMeta_(sets_ * physWays * kSubBlocks, 0),
      comp_(comp)
{
    repl_ = std::make_unique<LruPolicy>(sets_, physWays_);
}

Addr
DccLlc::superTag(Addr blk)
{
    return blk & ~static_cast<Addr>(kSubBlocks * kLineBytes - 1);
}

unsigned
DccLlc::subIndex(Addr blk)
{
    return static_cast<unsigned>((blk >> kLineShift) % kSubBlocks);
}

SetIdx
DccLlc::setIndex(Addr blk) const
{
    // Super-blocks (not lines) interleave across sets so that all four
    // sub-blocks of a super-block land in the same set.
    return SetIdx{(blk >> (kLineShift + 2)) & (sets_ - 1)};
}

std::optional<WayIdx>
DccLlc::findWay(SetIdx set, Addr blk) const
{
    // Branchless last-match scan over the contiguous tag row; the
    // sentinel makes a validity test unnecessary and the no-duplicate
    // invariant makes last-match equivalent to only-match.
    const Addr tag = superTag(blk);
    const Addr *row = tags_.data() + set.get() * physWays_;
    std::optional<WayIdx> hit;
    for (std::size_t w = 0; w < physWays_; ++w)
        hit = row[w] == tag ? std::optional<WayIdx>{WayIdx{
                                  static_cast<std::uint32_t>(w)}}
                            : hit;
    return hit;
}

std::optional<WayIdx>
DccLlc::freeWay(SetIdx set) const
{
    for (const WayIdx w : indexRange<WayIdx>(physWays_))
        if (!sbValid(set, w))
            return w;
    return std::nullopt;
}

SegCount
DccLlc::usedSegments(SetIdx set) const
{
    SegCount used{0};
    for (const WayIdx w : indexRange<WayIdx>(physWays_)) {
        if (!sbValid(set, w))
            continue;
        for (unsigned s = 0; s < kSubBlocks; ++s)
            if (present(set, w, s))
                used += subSegments(set, w, s);
    }
    return used;
}

void
DccLlc::evictSuperBlock(SetIdx set, WayIdx way, LlcResult &result)
{
    panicIf(!sbValid(set, way), "DCC: evicting invalid super-block");
    const Addr base = sbTag(set, way);
    for (unsigned s = 0; s < kSubBlocks; ++s) {
        if (!present(set, way, s))
            continue;
        const Addr addr = base + s * kLineBytes;
        if (subDirty(set, way, s)) {
            result.memWritebacks.push_back(addr);
            ++stats_[kStats["mem_writebacks"]];
        }
        result.backInvalidations.push_back(addr);
        ++stats_[kStats["back_invalidations"]];
        ++stats_[kStats["evictions"]];
    }
    clearSuperBlock(set, way);
    repl_->onInvalidate(set, way);
    ++stats_[kStats["superblock_evictions"]];
}

void
DccLlc::makeRoom(SetIdx set, SegCount segments, bool needTag,
                 LlcResult &result)
{
    const SegCount capacity{physWays_ * kSegmentsPerLine};
    bool haveTag = !needTag || freeWay(set).has_value();
    while (usedSegments(set) + segments > capacity || !haveTag) {
        std::optional<WayIdx> victim;
        for (const WayIdx cand : repl_->rank(set)) {
            if (sbValid(set, cand)) {
                victim = cand;
                break;
            }
        }
        panicIf(!victim, "DCC: nothing left to evict");
        evictSuperBlock(set, *victim, result);
        haveTag = true;
    }
}

LlcResult
DccLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> way = findWay(set, blk);
    if (!way)
        return result;
    const unsigned sub = subIndex(blk);
    if (!present(set, *way, sub))
        return result;
    if (subDirty(set, *way, sub)) {
        result.memWritebacks.push_back(blk);
        ++stats_[kStats["mem_writebacks"]];
    }
    result.backInvalidations.push_back(blk);
    ++stats_[kStats["back_invalidations"]];
    setSubMeta(set, *way, sub, false, false, kZeroLineSegments);
    ++stats_[kStats["evictions"]];
    ++stats_[kStats["coherence_invalidations"]];
    // Free the tag when the last sub-block leaves the super-block.
    bool any = false;
    for (unsigned s = 0; s < kSubBlocks && !any; ++s)
        any = present(set, *way, s);
    if (!any) {
        clearSuperBlock(set, *way);
        repl_->onInvalidate(set, *way);
    }
    return result;
}

LlcResult
DccLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const unsigned sub = subIndex(blk);
    const bool demand = type == AccessType::Read;

    ++stats_[kStats["accesses"]];
    if (demand)
        ++stats_[kStats["demand_accesses"]];

    std::optional<WayIdx> way = findWay(set, blk);
    if (way && present(set, *way, sub)) {
        // Sub-block hit.
        result.hit = true;
        if (type == AccessType::Writeback) {
            ++stats_[kStats["writeback_hits"]];
            const SegCount newSegs = compressedSegmentsFor(comp_, data);
            // Growth may overflow the pool; DCC frees other
            // super-blocks (no re-compaction needed: indirection).
            setSubMeta(set, *way, sub, true, true, SegCount{0});
            makeRoom(set, newSegs, false, result);
            // The accessed super-block may itself have been evicted
            // while making room; re-locate it.
            way = findWay(set, blk);
            if (!way) {
                // Extremely tight set: reinstall just this sub-block.
                makeRoom(set, newSegs, true, result);
                way = freeWay(set);
                tags_[tagIndex(set, *way)] = superTag(blk);
                repl_->onFill(set, *way);
            }
            setSubMeta(set, *way, sub, true, true, newSegs);
        } else if (demand) {
            ++stats_[kStats["demand_hits"]];
            repl_->onHit(set, *way);
        } else {
            ++stats_[kStats["prefetch_hits"]];
        }
        return result;
    }

    if (type == AccessType::Writeback)
        panic("DccLlc: writeback miss violates inclusion");

    if (demand)
        ++stats_[kStats["demand_misses"]];
    else
        ++stats_[kStats["prefetch_misses"]];

    const SegCount segments = compressedSegmentsFor(comp_, data);
    const bool needTag = !way.has_value();
    makeRoom(set, segments, needTag, result);
    // makeRoom may have evicted the super-block we matched earlier.
    way = findWay(set, blk);

    if (!way) {
        way = freeWay(set);
        panicIf(!way, "DCC: no free tag after makeRoom");
        tags_[tagIndex(set, *way)] = superTag(blk);
        ++stats_[kStats["superblock_fills"]];
    }

    setSubMeta(set, *way, sub, true, false, segments);
    repl_->onFill(set, *way);
    ++stats_[kStats["fills"]];
    return result;
}

bool
DccLlc::probe(Addr blk) const
{
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> way = findWay(set, blk);
    return way && present(set, *way, subIndex(blk));
}

std::size_t
DccLlc::validLines() const
{
    std::size_t count = 0;
    for (const std::uint8_t meta : subMeta_)
        count += linemeta::valid(meta) ? 1 : 0;
    return count;
}

std::string
DccLlc::checkSetInvariants(SetIdx set) const
{
    const SegCount capacity{physWays_ * kSegmentsPerLine};
    if (usedSegments(set) > capacity)
        return "segment pool over budget: " +
            std::to_string(usedSegments(set).get()) + " > " +
            std::to_string(capacity.get());
    for (const WayIdx w : indexRange<WayIdx>(physWays_)) {
        if (!sbValid(set, w)) {
            for (unsigned s = 0; s < kSubBlocks; ++s)
                if (present(set, w, s))
                    return "present sub-block under an invalid tag "
                           "(way " + std::to_string(w.get()) + ")";
            continue;
        }
        for (unsigned s = 0; s < kSubBlocks; ++s)
            if (present(set, w, s) &&
                subSegments(set, w, s) > kFullLineSegments)
                return "sub-block exceeds 16 segments (way " +
                    std::to_string(w.get()) + ")";
        for (WayIdx other{w.get() + 1}; other.get() < physWays_;
             ++other) {
            if (sbValid(set, other) &&
                sbTag(set, other) == sbTag(set, w))
                return "duplicate super-block tag in ways " +
                    std::to_string(w.get()) + " and " +
                    std::to_string(other.get());
        }
    }
    return {};
}

} // namespace bvc
