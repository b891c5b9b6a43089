#include "replacement/nru.hh"

namespace bvc
{

NruPolicy::NruPolicy(std::size_t sets, std::size_t ways)
    : ReplacementPolicy(sets, ways),
      bits_(sets * ways, 1)
{
}

bool
NruPolicy::candidateBit(SetIdx set, WayIdx way) const
{
    return bits_[idx(set, way)] != 0;
}

void
NruPolicy::touch(SetIdx set, WayIdx way)
{
    auto *row = &bits_[idx(set, WayIdx{0})];
    row[way.get()] = 0;
    // If no candidate remains, age every other way back to candidate.
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (row[w.get()])
            return;
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (w != way)
            row[w.get()] = 1;
}

void
NruPolicy::onFill(SetIdx set, WayIdx way)
{
    touch(set, way);
}

void
NruPolicy::onHit(SetIdx set, WayIdx way)
{
    touch(set, way);
}

void
NruPolicy::onInvalidate(SetIdx set, WayIdx way)
{
    bits_[idx(set, way)] = 1;
}

std::vector<std::uint64_t>
NruPolicy::stateSnapshot(SetIdx set) const
{
    std::vector<std::uint64_t> out;
    out.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(bits_[idx(set, w)]);
    return out;
}

std::vector<WayIdx>
NruPolicy::preferredVictims(SetIdx set)
{
    const auto *row = &bits_[idx(set, WayIdx{0})];
    std::vector<WayIdx> candidates;
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (row[w.get()])
            candidates.push_back(w);
    if (candidates.empty())
        candidates = rank(set);
    return candidates;
}

WayIdx
NruPolicy::victim(SetIdx set)
{
    const auto *row = &bits_[idx(set, WayIdx{0})];
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (row[w.get()])
            return w;
    return WayIdx{0};
}

std::vector<WayIdx>
NruPolicy::rank(SetIdx set)
{
    const auto *row = &bits_[idx(set, WayIdx{0})];
    std::vector<WayIdx> order;
    order.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (row[w.get()])
            order.push_back(w);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (!row[w.get()])
            order.push_back(w);
    return order;
}

} // namespace bvc
