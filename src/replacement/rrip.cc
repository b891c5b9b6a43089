#include "replacement/rrip.hh"

#include <algorithm>

namespace bvc
{

RripPolicy::RripPolicy(std::size_t sets, std::size_t ways)
    : ReplacementPolicy(sets, ways),
      rrpvs_(sets * ways, kMaxRrpv)
{
}

unsigned
RripPolicy::rrpv(SetIdx set, WayIdx way) const
{
    return rrpvs_[idx(set, way)];
}

void
RripPolicy::insert(SetIdx set, WayIdx way, unsigned rrpv)
{
    rrpvs_[idx(set, way)] = static_cast<std::uint8_t>(rrpv);
}

void
RripPolicy::onHit(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = 0;
}

void
RripPolicy::onInvalidate(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = kMaxRrpv;
}

const std::uint8_t *
RripPolicy::age(SetIdx set)
{
    auto *row = &rrpvs_[idx(set, WayIdx{0})];
    const unsigned top = *std::max_element(row, row + ways_);
    if (top < kMaxRrpv) {
        const auto delta = static_cast<std::uint8_t>(kMaxRrpv - top);
        for (std::size_t w = 0; w < ways_; ++w)
            row[w] = static_cast<std::uint8_t>(row[w] + delta);
    }
    return row;
}

std::vector<WayIdx>
RripPolicy::rank(SetIdx set)
{
    const auto *row = age(set);
    std::vector<WayIdx> order;
    order.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        order.push_back(w);
    std::stable_sort(order.begin(), order.end(),
                     [&](WayIdx a, WayIdx b) {
                         return row[a.get()] > row[b.get()];
                     });
    return order;
}

WayIdx
RripPolicy::victim(SetIdx set)
{
    // The stable sort's front: the lowest way at the (aged) maximum.
    const auto *row = age(set);
    std::size_t w = 0;
    while (row[w] != kMaxRrpv) // age() guarantees such a way exists
        ++w;
    return WayIdx{w};
}

std::vector<WayIdx>
RripPolicy::preferredVictims(SetIdx set)
{
    // The candidate class is exactly the max-RRPV ways, which is the
    // prefix of rank() in index order.
    const auto *row = age(set);
    std::vector<WayIdx> candidates;
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (row[w.get()] == kMaxRrpv)
            candidates.push_back(w);
    return candidates;
}

std::vector<std::uint64_t>
RripPolicy::stateSnapshot(SetIdx set) const
{
    std::vector<std::uint64_t> out;
    out.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(rrpvs_[idx(set, w)]);
    return out;
}

} // namespace bvc
