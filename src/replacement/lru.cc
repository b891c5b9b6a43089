#include "replacement/lru.hh"

#include <algorithm>

namespace bvc
{

LruPolicy::LruPolicy(std::size_t sets, std::size_t ways)
    : ReplacementPolicy(sets, ways),
      stamps_(sets * ways, 0)
{
}

Tick &
LruPolicy::stamp(SetIdx set, WayIdx way)
{
    return stamps_[idx(set, way)];
}

const Tick &
LruPolicy::stamp(SetIdx set, WayIdx way) const
{
    return stamps_[idx(set, way)];
}

void
LruPolicy::onFill(SetIdx set, WayIdx way)
{
    stamp(set, way) = ++tick_;
}

void
LruPolicy::onHit(SetIdx set, WayIdx way)
{
    stamp(set, way) = ++tick_;
}

void
LruPolicy::onInvalidate(SetIdx set, WayIdx way)
{
    stamp(set, way) = 0;
}

std::vector<WayIdx>
LruPolicy::rank(SetIdx set)
{
    std::vector<WayIdx> order;
    order.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        order.push_back(w);
    std::stable_sort(order.begin(), order.end(),
                     [&](WayIdx a, WayIdx b) {
                         return stamp(set, a) < stamp(set, b);
                     });
    return order;
}

WayIdx
LruPolicy::victim(SetIdx set)
{
    // Argmin of the stamps; the strict `<` keeps the lowest way among
    // equal stamps, which is where rank()'s stable sort puts it.
    const Tick *row = &stamp(set, WayIdx{0});
    std::size_t best = 0;
    for (std::size_t w = 1; w < ways_; ++w)
        if (row[w] < row[best])
            best = w;
    return WayIdx{best};
}

std::vector<std::uint64_t>
LruPolicy::stateSnapshot(SetIdx set) const
{
    std::vector<std::uint64_t> out;
    out.reserve(ways_ + 1);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(stamp(set, w));
    // The global tick participates: equal call sequences keep it equal.
    out.push_back(tick_);
    return out;
}

std::size_t
LruPolicy::stackPosition(SetIdx set, WayIdx way) const
{
    std::size_t pos = 0;
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (w != way && stamp(set, w) > stamp(set, way))
            ++pos;
    return pos;
}

} // namespace bvc
