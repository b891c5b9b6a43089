#include "core/two_tag_array.hh"

#include "util/logging.hh"

namespace bvc
{

TwoTagLlc::TwoTagLlc(std::string statName, std::size_t sizeBytes,
                     std::size_t physWays, ReplacementKind repl,
                     const Compressor &comp)
    : Llc(std::move(statName), kStats.names),
      sets_(cacheSetCount(sizeBytes, physWays, "two-tag LLC")),
      physWays_(physWays),
      tags_(sets_, physWays * 2),
      comp_(comp)
{
    repl_ = makeReplacement(repl, sets_, numSlots());
}

SetIdx
TwoTagLlc::setIndex(Addr blk) const
{
    return SetIdx{(blk >> kLineShift) & (sets_ - 1)};
}

std::optional<WayIdx>
TwoTagLlc::findSlot(SetIdx set, Addr blk) const
{
    return tags_.find(set, blk);
}

bool
TwoTagLlc::fits(SetIdx set, WayIdx s, SegCount segments) const
{
    const WayIdx partner = partnerOf(s);
    if (!tags_.valid(set, partner))
        return true;
    return tags_.segments(set, partner) + segments <= kFullLineSegments;
}

void
TwoTagLlc::evictSlot(SetIdx set, WayIdx s, LlcResult &result)
{
    panicIf(!tags_.valid(set, s), "TwoTagLlc: evicting invalid slot");
    const Addr victimTag = tags_.tag(set, s);
    ++stats_[kStats["evictions"]];
    if (tags_.dirty(set, s)) {
        result.memWritebacks.push_back(victimTag);
        ++stats_[kStats["mem_writebacks"]];
    }
    result.backInvalidations.push_back(victimTag);
    ++stats_[kStats["back_invalidations"]];
    tags_.invalidate(set, s);
    repl_->onInvalidate(set, s);
}

LlcResult
TwoTagLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> s = findSlot(set, blk);
    const bool demand = type == AccessType::Read;

    ++stats_[kStats["accesses"]];
    if (demand)
        ++stats_[kStats["demand_accesses"]];

    // Doubled tags cost one extra lookup cycle on every access (Sec V).
    result.extraLatency = 1;

    if (s) {
        result.hit = true;
        const SegCount storedSegs = tags_.segments(set, *s);
        // A writeback overwrites the whole line, so the stored copy is
        // never decompressed: no latency charge, no counter bump.
        if (type != AccessType::Writeback) {
            result.extraLatency +=
                decompressLatencyFor(comp_, storedSegs);
            if (needsDecompression(storedSegs))
                ++stats_[kStats["decompressions"]];
        }

        if (type == AccessType::Writeback) {
            ++stats_[kStats["writeback_hits"]];
            tags_.setDirty(set, *s, true);
            const SegCount newSegs = compressedSegmentsFor(comp_, data);
            ++stats_[kStats["compressions"]];
            if (newSegs > storedSegs && !fits(set, *s, newSegs) &&
                tags_.valid(set, partnerOf(*s))) {
                // The rewritten line grew past its partner: evict the
                // partner (write hit scenario, Section IV.B.5 analog).
                ++stats_[kStats["partner_evictions_on_write"]];
                evictSlot(set, partnerOf(*s), result);
            }
            tags_.setSegments(set, *s, newSegs);
        } else if (demand) {
            ++stats_[kStats["demand_hits"]];
            repl_->onHit(set, *s);
        } else {
            ++stats_[kStats["prefetch_hits"]];
        }
        return result;
    }

    if (type == AccessType::Writeback)
        panic("TwoTagLlc: writeback miss violates inclusion");

    if (demand)
        ++stats_[kStats["demand_misses"]];
    else
        ++stats_[kStats["prefetch_misses"]];

    const SegCount segments = compressedSegmentsFor(comp_, data);
    ++stats_[kStats["compressions"]];

    // Both schemes allocate a fitting invalid tag slot first (normal
    // cache allocation); they differ in victim selection when none is
    // available.
    std::optional<WayIdx> fillSlot;
    for (const WayIdx cand : indexRange<WayIdx>(numSlots())) {
        if (!tags_.valid(set, cand) && fits(set, cand, segments)) {
            fillSlot = cand;
            break;
        }
    }

    if (!fillSlot) {
        fillSlot = chooseVictimSlot(set, segments);
        if (tags_.valid(set, *fillSlot))
            evictSlot(set, *fillSlot, result);
    }
    if (!fits(set, *fillSlot, segments)) {
        // Partner line victimization (Section III option 1).
        ++stats_[kStats["partner_evictions_on_fill"]];
        evictSlot(set, partnerOf(*fillSlot), result);
    }

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

LlcResult
TwoTagLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    if (const std::optional<WayIdx> s = findSlot(set, blk)) {
        evictSlot(set, *s, result);
        ++stats_[kStats["coherence_invalidations"]];
    }
    return result;
}

bool
TwoTagLlc::probe(Addr blk) const
{
    return findSlot(setIndex(blk), blk).has_value();
}

void
TwoTagLlc::downgradeHint(Addr blk)
{
    const SetIdx set = setIndex(blk);
    if (const std::optional<WayIdx> s = findSlot(set, blk))
        repl_->downgradeHint(set, *s);
}

std::size_t
TwoTagLlc::validLines() const
{
    return tags_.validCount();
}

bool
TwoTagLlc::checkPairFit() const
{
    for (const SetIdx set : indexRange<SetIdx>(sets_))
        if (!checkSetInvariants(set).empty())
            return false;
    return true;
}

std::string
TwoTagLlc::checkSetInvariants(SetIdx set) const
{
    for (const WayIdx s : indexRange<WayIdx>(numSlots())) {
        const CacheLine line = tags_.line(set, s);
        if (!line.valid)
            continue;
        if (line.segments > kFullLineSegments)
            return "line exceeds 16 segments in slot " +
                std::to_string(s.get());
        const CacheLine partner = tags_.line(set, partnerOf(s));
        if (s < partnerOf(s) && partner.valid &&
            line.segments + partner.segments > kFullLineSegments) {
            return "pair-fit violated in physical way " +
                std::to_string(s.get() / 2) + ": " +
                std::to_string(line.segments.get()) + " + " +
                std::to_string(partner.segments.get()) + " segments";
        }
        for (WayIdx other{s.get() + 1}; other.get() < numSlots();
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

TwoTagNaiveLlc::TwoTagNaiveLlc(std::size_t sizeBytes,
                               std::size_t physWays,
                               ReplacementKind repl,
                               const Compressor &comp)
    : TwoTagLlc("llc", sizeBytes, physWays, repl, comp)
{
}

WayIdx
TwoTagNaiveLlc::chooseVictimSlot(SetIdx set, SegCount)
{
    // Strictly follow the policy: whoever it names, even if that forces
    // the partner line out as well.
    return repl_->victim(set);
}

TwoTagModifiedLlc::TwoTagModifiedLlc(std::size_t sizeBytes,
                                     std::size_t physWays,
                                     ReplacementKind repl,
                                     const Compressor &comp)
    : TwoTagLlc("llc", sizeBytes, physWays, repl, comp)
{
}

WayIdx
TwoTagModifiedLlc::chooseVictimSlot(SetIdx set, SegCount segments)
{
    // Among the policy's equally-evictable candidates, keep only those
    // whose replacement leaves the partner in place; of these, evict the
    // one freeing the most space (largest compressed size), ECM-style.
    const auto candidates = repl_->preferredVictims(set);
    std::optional<WayIdx> best;
    SegCount bestSegments{0};
    for (const WayIdx cand : candidates) {
        if (!tags_.valid(set, cand))
            continue;
        // Fit check against the partner, ignoring the candidate itself
        // (it is being evicted).
        const WayIdx partner = partnerOf(cand);
        const bool ok = !tags_.valid(set, partner) ||
            tags_.segments(set, partner) + segments <= kFullLineSegments;
        const SegCount candSegs = tags_.segments(set, cand);
        if (ok && (!best || candSegs > bestSegments)) {
            best = cand;
            bestSegments = candSegs;
        }
    }
    if (best)
        return *best;
    // No size-compatible candidate: fall back to partner victimization.
    return repl_->victim(set);
}

} // namespace bvc
