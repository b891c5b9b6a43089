#include "replacement/char_policy.hh"

namespace bvc
{

CharPolicy::CharPolicy(std::size_t sets, std::size_t ways)
    : ReplacementPolicy(sets, ways),
      bits_(sets * ways, 1),
      hinted_(sets * ways, 0)
{
}

CharPolicy::SetRole
CharPolicy::role(SetIdx set) const
{
    const auto slot = set.get() % kDuelPeriod;
    if (slot == 0)
        return SetRole::LeaderHint;
    if (slot == 1)
        return SetRole::LeaderNoHint;
    return SetRole::Follower;
}

bool
CharPolicy::applyHints(SetIdx set) const
{
    switch (role(set)) {
      case SetRole::LeaderHint:
        return true;
      case SetRole::LeaderNoHint:
        return false;
      case SetRole::Follower:
        return hintsEnabled();
    }
    return true;
}

bool
CharPolicy::hintsEnabled() const
{
    // Conservative dueling: followers only apply downgrade hints once
    // the leader sets have accumulated clear evidence that hinted
    // lines die unreferenced (negative selector). A mispredicting
    // hint path then degrades CHAR to plain NRU instead of below it.
    return psel_ <= -kEnableThreshold;
}

void
CharPolicy::touch(SetIdx set, WayIdx way)
{
    auto *row = &bits_[idx(set, WayIdx{0})];
    row[way.get()] = 0;
    for (std::size_t w = 0; w < ways_; ++w)
        if (row[w])
            return;
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (w != way)
            row[w.get()] = 1;
}

void
CharPolicy::onFill(SetIdx set, WayIdx way)
{
    hinted_[idx(set, way)] = 0;
    touch(set, way);
}

void
CharPolicy::onHit(SetIdx set, WayIdx way)
{
    const std::size_t at = idx(set, way);
    if (hinted_[at] && role(set) == SetRole::LeaderHint) {
        // A hinted-down line proved useful: evidence against hinting.
        if (psel_ < kPselMax)
            ++psel_;
    }
    hinted_[at] = 0;
    touch(set, way);
}

void
CharPolicy::onInvalidate(SetIdx set, WayIdx way)
{
    const std::size_t at = idx(set, way);
    bits_[at] = 1;
    hinted_[at] = 0;
}

void
CharPolicy::downgradeHint(SetIdx set, WayIdx way)
{
    const std::size_t at = idx(set, way);
    if (applyHints(set)) {
        bits_[at] = 1;
        hinted_[at] = 1;
    } else if (role(set) == SetRole::LeaderNoHint) {
        // Record that the hint would have fired; if the line then gets
        // evicted without a rehit, hinting would have been harmless and
        // freed the way sooner: evidence for hinting.
        hinted_[at] = 1;
    }
}

std::vector<WayIdx>
CharPolicy::preferredVictims(SetIdx set)
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

std::vector<WayIdx>
CharPolicy::rank(SetIdx set)
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
    noteVictim(set, order.front());
    return order;
}

WayIdx
CharPolicy::victim(SetIdx set)
{
    const auto *row = &bits_[idx(set, WayIdx{0})];
    WayIdx front{0};
    for (const WayIdx w : indexRange<WayIdx>(ways_)) {
        if (row[w.get()]) {
            front = w;
            break;
        }
    }
    noteVictim(set, front);
    return front;
}

void
CharPolicy::noteVictim(SetIdx set, WayIdx front)
{
    // Dueling feedback for the no-hint leader: the preferred victim being
    // a would-have-been-hinted line that never got rehit means hints
    // predict death correctly there.
    if (role(set) == SetRole::LeaderNoHint && hinted_[idx(set, front)] &&
        psel_ > -kPselMax)
        --psel_;
}

std::vector<std::uint64_t>
CharPolicy::stateSnapshot(SetIdx set) const
{
    std::vector<std::uint64_t> out;
    out.reserve(2 * ways_ + 1);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(bits_[idx(set, w)]);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(hinted_[idx(set, w)]);
    // The global selector gates whether followers act on hints.
    out.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(psel_)));
    return out;
}

} // namespace bvc
