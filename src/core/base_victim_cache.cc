#include "core/base_victim_cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace bvc
{

BaseVictimLlc::BaseVictimLlc(std::size_t sizeBytes, std::size_t physWays,
                             ReplacementKind baseRepl,
                             VictimReplKind victimRepl,
                             const Compressor &comp, bool inclusive,
                             unsigned segmentQuantumBytes)
    : Llc("llc", kStats.names),
      sets_(cacheSetCount(sizeBytes, physWays, "Base-Victim LLC")),
      ways_(physWays),
      base_(sets_, physWays),
      victim_(sets_, physWays),
      comp_(comp),
      inclusive_(inclusive),
      quantumSegments_(segmentQuantumBytes / kSegmentBytes)
{
    panicIf(quantumSegments_ == 0 ||
                kSegmentsPerLine % quantumSegments_ != 0,
            "segment quantum must divide the line size");
    baseRepl_ = makeReplacement(baseRepl, sets_, ways_);
    victimRepl_ = makeVictimReplacement(victimRepl, sets_, ways_);
    candidates_.reserve(ways_);
}

Counter &
BaseVictimLlc::silentEvictions(VictimEvictReason reason)
{
    switch (reason) {
      case VictimEvictReason::Displaced:
        return stats_[kStats["victim_silent_evictions_displaced"]];
      case VictimEvictReason::Partner:
        return stats_[kStats["victim_silent_evictions_partner"]];
      case VictimEvictReason::WriteGrowth:
        return stats_[kStats["victim_silent_evictions_write_growth"]];
    }
    panic("BaseVictimLlc: unknown victim eviction reason");
}

SetIdx
BaseVictimLlc::setIndex(Addr blk) const
{
    return SetIdx{(blk >> kLineShift) & (sets_ - 1)};
}

SegCount
BaseVictimLlc::quantizedSegments(const std::uint8_t *data) const
{
    const unsigned segments = compressedSegmentsFor(comp_, data).get();
    // Round up to the size-field granularity (e.g. 8B alignment stores
    // sizes in 2-segment steps).
    return SegCount{(segments + quantumSegments_ - 1) /
                    quantumSegments_ * quantumSegments_};
}

WayIdx
BaseVictimLlc::chooseBaseWay(SetIdx set)
{
    // Must match UncompressedLlc exactly: invalid way first, then the
    // policy's victim (this is what makes the mirror invariant hold).
    if (const std::optional<WayIdx> w = base_.firstInvalid(set))
        return *w;
    return baseRepl_->victim(set);
}

void
BaseVictimLlc::silentEvictVictim(SetIdx set, WayIdx way,
                                 VictimEvictReason reason,
                                 LlcResult &result)
{
    if (!victim_.valid(set, way))
        return;
    const bool wasDirty = victim_.dirty(set, way);
    if (inclusive_) {
        panicIf(wasDirty,
                "Base-Victim: dirty line in the inclusive Victim Cache");
    } else if (wasDirty) {
        // Non-inclusive mode keeps dirty victims (Section IV.B.3);
        // dropping one costs a memory writeback.
        result.memWritebacks.push_back(victim_.tag(set, way));
        ++stats_[kStats["mem_writebacks"]];
        ++stats_[kStats["dirty_victim_evictions"]];
    }
    victim_.invalidate(set, way);
    ++silentEvictions(reason);
    ++stats_[kStats["victim_silent_evictions"]];
}

bool
BaseVictimLlc::tryInsertVictim(SetIdx set, const CacheLine &line,
                               LlcResult &result)
{
    // Collect every way where the victim fits beside the base line.
    candidates_.clear();
    for (const WayIdx w : indexRange<WayIdx>(ways_)) {
        const SegCount baseSegs = base_.valid(set, w)
                                      ? base_.segments(set, w)
                                      : kZeroLineSegments;
        if (baseSegs + line.segments > kFullLineSegments)
            continue;
        candidates_.push_back(VictimCandidate{w, baseSegs,
                                              victim_.valid(set, w),
                                              victim_.segments(set, w)});
    }

    if (candidates_.empty()) {
        // The replaced line cannot be kept anywhere: a plain eviction,
        // exactly as in the uncompressed cache.
        ++stats_[kStats["victim_insert_failures"]];
        return false;
    }

    const WayIdx way = victimRepl_->choose(set, candidates_);
    silentEvictVictim(set, way, VictimEvictReason::Displaced, result);

    CacheLine parked = line;
    if (inclusive_)
        parked.dirty = false; // written back on insertion (Section IV.A)
    victim_.install(set, way, parked);
    victimRepl_->onInsert(set, way);
    ++stats_[kStats["victim_inserts"]];
    // Migrating the line between physical ways costs one data-array
    // read plus one write (Section VI.D power discussion).
    stats_[kStats["data_movements"]] += 1;
    return true;
}

void
BaseVictimLlc::installBase(SetIdx set, WayIdx way,
                           const CacheLine &incoming, LlcResult &result)
{
    CacheLine replaced = base_.line(set, way);

    if (replaced.valid) {
        ++stats_[kStats["base_evictions"]];
        if (inclusive_) {
            if (replaced.dirty) {
                // Write the dirty victim back to memory so that the
                // Victim Cache only ever holds clean lines (Sec IV.A).
                result.memWritebacks.push_back(replaced.tag);
                ++stats_[kStats["mem_writebacks"]];
            }
            // The line leaves the baseline content: upper levels must
            // drop their copies whether it is evicted or parked.
            result.backInvalidations.push_back(replaced.tag);
            ++stats_[kStats["back_invalidations"]];
        }
    }

    // Displace the victim partner if the incoming line no longer fits
    // with it in the same physical way.
    if (victim_.valid(set, way) &&
        incoming.segments + victim_.segments(set, way) >
            kFullLineSegments) {
        silentEvictVictim(set, way, VictimEvictReason::Partner, result);
    }

    base_.install(set, way, incoming);
    baseRepl_->onFill(set, way);
    ++stats_[kStats["fills"]];

    if (replaced.valid) {
        if (inclusive_)
            replaced.dirty = false; // written back above if dirty
        const bool parked = tryInsertVictim(set, replaced, result);
        if (!parked && !inclusive_ && replaced.dirty) {
            // Non-inclusive: a dropped dirty victim must reach memory.
            result.memWritebacks.push_back(replaced.tag);
            ++stats_[kStats["mem_writebacks"]];
        }
    }
}

LlcResult
BaseVictimLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const bool demand = type == AccessType::Read;

    ++stats_[kStats["accesses"]];
    if (demand)
        ++stats_[kStats["demand_accesses"]];

    // Doubled tags cost one extra lookup cycle on every access (Sec V).
    result.extraLatency = 1;

    // --- Hit in the Baseline Cache (Sections IV.B.4 / IV.B.5) ---
    if (const std::optional<WayIdx> bway = findBase(set, blk)) {
        result.hit = true;
        // A writeback overwrites the whole line, so the stored copy is
        // never decompressed: no latency charge, no counter bump.
        if (type != AccessType::Writeback) {
            const SegCount storedSegs = base_.segments(set, *bway);
            result.extraLatency +=
                decompressLatencyFor(comp_, storedSegs);
            if (needsDecompression(storedSegs))
                ++stats_[kStats["decompressions"]];
        }

        if (type == AccessType::Writeback) {
            ++stats_[kStats["writeback_hits"]];
            base_.setDirty(set, *bway, true);
            const SegCount newSegs = quantizedSegments(data);
            ++stats_[kStats["compressions"]];
            if (victim_.valid(set, *bway) &&
                newSegs + victim_.segments(set, *bway) >
                    kFullLineSegments) {
                // Write hit grows the base line: silently evict the
                // victim partner even if it was recently used (IV.B.5).
                silentEvictVictim(set, *bway,
                                  VictimEvictReason::WriteGrowth, result);
            }
            base_.setSegments(set, *bway, newSegs);
        } else if (demand) {
            ++stats_[kStats["demand_hits"]];
            ++stats_[kStats["base_hits"]];
            baseRepl_->onHit(set, *bway);
        } else {
            ++stats_[kStats["prefetch_hits"]];
        }
        return result;
    }

    // --- Hit in the Victim Cache (Sections IV.B.2 / IV.B.3) ---
    if (const std::optional<WayIdx> vway = findVictim(set, blk)) {
        panicIf(type == AccessType::Writeback && inclusive_,
                "Base-Victim: writeback hit the Victim Cache "
                "(impossible for inclusive hierarchies, Section IV.B.3)");
        result.hit = true;
        result.victimHit = true;
        if (demand) {
            ++stats_[kStats["demand_hits"]];
            ++stats_[kStats["victim_hits"]];
        } else if (type == AccessType::Prefetch) {
            ++stats_[kStats["prefetch_hits"]];
            ++stats_[kStats["victim_prefetch_hits"]];
        } else {
            ++stats_[kStats["writeback_hits"]];
            ++stats_[kStats["victim_write_hits"]];
        }

        CacheLine promoted = victim_.line(set, *vway);
        // Writebacks overwrite the whole line; only reads/prefetches
        // decompress the stored victim copy.
        if (type != AccessType::Writeback) {
            result.extraLatency +=
                decompressLatencyFor(comp_, promoted.segments);
            if (needsDecompression(promoted.segments))
                ++stats_[kStats["decompressions"]];
        }

        if (type == AccessType::Writeback) {
            // Non-inclusive write hit (Section IV.B.3): the rewritten
            // line is recompressed, then promoted like a read hit.
            promoted.dirty = true;
            promoted.segments = quantizedSegments(data);
            ++stats_[kStats["compressions"]];
        }

        // De-allocate from the Victim Cache, then install into the
        // Baseline Cache exactly as the uncompressed cache would fill
        // on its (inevitable) miss for this access. The vacated victim
        // slot stays eligible for the displaced base line (see
        // installBase()).
        victimRepl_->onHit(set, *vway);
        victim_.invalidate(set, *vway);
        ++stats_[kStats["promotions"]];
        stats_[kStats["data_movements"]] += 1;

        installBase(set, chooseBaseWay(set), promoted, result);
        return result;
    }

    // --- Miss (Section IV.B.1) ---
    if (type == AccessType::Writeback && inclusive_)
        panic("Base-Victim: writeback miss violates inclusion");

    if (demand)
        ++stats_[kStats["demand_misses"]];
    else if (type == AccessType::Prefetch)
        ++stats_[kStats["prefetch_misses"]];
    else
        ++stats_[kStats["writeback_fills"]]; // non-inclusive only

    CacheLine incoming;
    incoming.tag = blk;
    incoming.valid = true;
    incoming.dirty = type == AccessType::Writeback;
    incoming.segments = quantizedSegments(data);
    ++stats_[kStats["compressions"]];

    installBase(set, chooseBaseWay(set), incoming, result);
    return result;
}

LlcResult
BaseVictimLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);

    if (const std::optional<WayIdx> bway = findBase(set, blk)) {
        // Baseline copy: drop it exactly as the uncompressed reference
        // does, so the mirror and replacement state stay in lockstep.
        if (base_.dirty(set, *bway)) {
            result.memWritebacks.push_back(blk);
            ++stats_[kStats["mem_writebacks"]];
        }
        result.backInvalidations.push_back(blk);
        ++stats_[kStats["back_invalidations"]];
        base_.invalidate(set, *bway);
        baseRepl_->onInvalidate(set, *bway);
        ++stats_[kStats["coherence_invalidations"]];
        return result;
    }

    if (const std::optional<WayIdx> vway = findVictim(set, blk)) {
        // Victim copies are opportunistic extras the baseline never
        // held: upper levels cannot cache them (no back-invalidation)
        // and inclusive victims are clean (no writeback) — the drop is
        // silent, so the hit rate stays >= the baseline's.
        if (!inclusive_ && victim_.dirty(set, *vway)) {
            result.memWritebacks.push_back(blk);
            ++stats_[kStats["mem_writebacks"]];
            ++stats_[kStats["dirty_victim_evictions"]];
        }
        victim_.invalidate(set, *vway);
        ++stats_[kStats["coherence_invalidations"]];
        ++stats_[kStats["victim_coherence_invalidations"]];
    }
    return result;
}

bool
BaseVictimLlc::probe(Addr blk) const
{
    const SetIdx set = setIndex(blk);
    return findBase(set, blk).has_value() ||
        findVictim(set, blk).has_value();
}

bool
BaseVictimLlc::probeBase(Addr blk) const
{
    return findBase(setIndex(blk), blk).has_value();
}

bool
BaseVictimLlc::probeVictim(Addr blk) const
{
    return findVictim(setIndex(blk), blk).has_value();
}

void
BaseVictimLlc::downgradeHint(Addr blk)
{
    const SetIdx set = setIndex(blk);
    if (const std::optional<WayIdx> way = findBase(set, blk))
        baseRepl_->downgradeHint(set, *way);
}

std::size_t
BaseVictimLlc::validLines() const
{
    return base_.validCount() + victim_.validCount();
}

std::vector<Addr>
BaseVictimLlc::baseSetContents(SetIdx set) const
{
    std::vector<Addr> contents;
    for (const WayIdx w : indexRange<WayIdx>(ways_)) {
        if (base_.valid(set, w))
            contents.push_back(base_.tag(set, w));
    }
    std::sort(contents.begin(), contents.end());
    return contents;
}

std::string
BaseVictimLlc::checkSetInvariants(SetIdx set) const
{
    for (const WayIdx w : indexRange<WayIdx>(ways_)) {
        const CacheLine base = base_.line(set, w);
        const CacheLine vict = victim_.line(set, w);
        if (base.valid && base.segments > kFullLineSegments)
            return "base line exceeds 16 segments in way " +
                std::to_string(w.get());
        if (!vict.valid)
            continue;
        if (vict.segments > kFullLineSegments)
            return "victim line exceeds 16 segments in way " +
                std::to_string(w.get());
        if (inclusive_ && vict.dirty)
            return "dirty victim line in the inclusive Victim Cache "
                   "(way " + std::to_string(w.get()) + ")";
        if (base.valid &&
            base.segments + vict.segments > kFullLineSegments) {
            return "pair-fit violated in way " + std::to_string(w.get()) +
                ": " + std::to_string(base.segments.get()) + " + " +
                std::to_string(vict.segments.get()) + " segments";
        }
        if (findBase(set, vict.tag).has_value())
            return "tag in both B and V sections (way " +
                std::to_string(w.get()) + ")";
        for (WayIdx other{w.get() + 1}; other.get() < ways_; ++other) {
            const CacheLine dup = victim_.line(set, other);
            if (dup.valid && dup.tag == vict.tag)
                return "duplicate tag in the Victim Cache (ways " +
                    std::to_string(w.get()) + " and " +
                    std::to_string(other.get()) + ")";
        }
    }
    return {};
}

bool
BaseVictimLlc::checkInvariants() const
{
    for (const SetIdx set : indexRange<SetIdx>(sets_))
        if (!checkSetInvariants(set).empty())
            return false;
    return true;
}

} // namespace bvc
