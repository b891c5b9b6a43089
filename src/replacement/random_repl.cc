#include "replacement/random_repl.hh"

namespace bvc
{

RandomPolicy::RandomPolicy(std::size_t sets, std::size_t ways,
                           std::uint64_t seed)
    : ReplacementPolicy(sets, ways),
      rng_(seed),
      order_(ways)
{
}

void
RandomPolicy::shuffle()
{
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        order_[w.get()] = w;
    // Fisher-Yates shuffle driven by the deterministic PRNG.
    for (std::size_t i = ways_; i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng_.range(i));
        std::swap(order_[i - 1], order_[j]);
    }
}

std::vector<WayIdx>
RandomPolicy::rank(SetIdx)
{
    shuffle();
    return order_;
}

WayIdx
RandomPolicy::victim(SetIdx)
{
    // The same ways - 1 draws as rank(), so the PRNG stream (and with it
    // every later decision) does not depend on which of the two is used.
    shuffle();
    return order_.front();
}

std::vector<std::uint64_t>
RandomPolicy::stateSnapshot(SetIdx) const
{
    // All decision state is the PRNG stream position, which is global.
    return {rng_.stateWord(0), rng_.stateWord(1), rng_.stateWord(2),
            rng_.stateWord(3)};
}

} // namespace bvc
