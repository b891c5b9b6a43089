#include "cache/cache.hh"

#include "util/logging.hh"

namespace bvc
{

Cache::Cache(std::string name, std::size_t sizeBytes, std::size_t ways,
             ReplacementKind repl, unsigned latency)
    : sets_(cacheSetCount(sizeBytes, ways, "cache")),
      ways_(ways),
      latency_(latency),
      tags_(sets_, ways_),
      stats_(std::move(name), kStats.names)
{
    panicIf(sets_ * ways_ * kLineBytes != sizeBytes,
            "cache size not divisible into sets*ways*64B");
    repl_ = makeReplacement(repl, sets_, ways_);
}

SetIdx
Cache::setIndex(Addr blk) const
{
    return SetIdx{(blk >> kLineShift) & (sets_ - 1)};
}

bool
Cache::access(Addr blk, bool write, std::optional<Eviction> &evicted)
{
    evicted.reset();
    ++stats_[kStats["accesses"]];
    const SetIdx set = setIndex(blk);

    if (const std::optional<WayIdx> hit = tags_.find(set, blk)) {
        ++stats_[write ? kStats["write_hits"] : kStats["read_hits"]];
        if (write)
            tags_.setDirty(set, *hit, true);
        repl_->onHit(set, *hit);
        return true;
    }

    ++stats_[write ? kStats["write_misses"] : kStats["read_misses"]];

    // Prefer an invalid way; otherwise consult the replacement policy.
    std::optional<WayIdx> victimWay = tags_.firstInvalid(set);
    if (!victimWay)
        victimWay = repl_->victim(set);

    if (tags_.valid(set, *victimWay)) {
        ++stats_[kStats["evictions"]];
        const bool wasDirty = tags_.dirty(set, *victimWay);
        if (wasDirty)
            ++stats_[kStats["dirty_evictions"]];
        evicted = Eviction{tags_.tag(set, *victimWay), wasDirty};
    }

    CacheLine fill;
    fill.tag = blk;
    fill.valid = true;
    fill.dirty = write;
    fill.segments = kFullLineSegments;
    tags_.install(set, *victimWay, fill);
    repl_->onFill(set, *victimWay);
    return false;
}

bool
Cache::probe(Addr blk) const
{
    return findWay(blk).has_value();
}

bool
Cache::probeDirty(Addr blk) const
{
    const std::optional<WayIdx> way = findWay(blk);
    return way && tags_.dirty(setIndex(blk), *way);
}

std::optional<bool>
Cache::invalidate(Addr blk)
{
    const std::optional<WayIdx> way = findWay(blk);
    if (!way)
        return std::nullopt;
    const SetIdx set = setIndex(blk);
    const bool wasDirty = tags_.dirty(set, *way);
    tags_.invalidate(set, *way);
    repl_->onInvalidate(set, *way);
    ++stats_[kStats["back_invalidations"]];
    if (wasDirty)
        ++stats_[kStats["dirty_back_invalidations"]];
    return wasDirty;
}

std::optional<bool>
Cache::downgrade(Addr blk)
{
    const std::optional<WayIdx> way = findWay(blk);
    if (!way)
        return std::nullopt;
    const SetIdx set = setIndex(blk);
    const bool wasDirty = tags_.dirty(set, *way);
    tags_.setDirty(set, *way, false);
    ++stats_[kStats["downgrades"]];
    return wasDirty;
}

void
Cache::forEachLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const SetIdx set : indexRange<SetIdx>(sets_))
        for (const WayIdx way : indexRange<WayIdx>(ways_))
            if (tags_.valid(set, way))
                fn(tags_.line(set, way));
}

void
Cache::flush()
{
    for (const SetIdx set : indexRange<SetIdx>(sets_)) {
        for (const WayIdx way : indexRange<WayIdx>(ways_)) {
            if (tags_.valid(set, way)) {
                tags_.invalidate(set, way);
                repl_->onInvalidate(set, way);
            }
        }
    }
}

} // namespace bvc
