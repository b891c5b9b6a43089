#include "replacement/drrip.hh"

namespace bvc
{

DrripPolicy::DrripPolicy(std::size_t sets, std::size_t ways)
    : RripPolicy(sets, ways)
{
}

DrripPolicy::SetRole
DrripPolicy::role(SetIdx set) const
{
    const auto slot = set.get() % kDuelPeriod;
    if (slot == 0)
        return SetRole::LeaderSrrip;
    if (slot == 1)
        return SetRole::LeaderBrrip;
    return SetRole::Follower;
}

bool
DrripPolicy::insertBrrip(SetIdx set)
{
    switch (role(set)) {
      case SetRole::LeaderSrrip:
        return false;
      case SetRole::LeaderBrrip:
        return true;
      case SetRole::Follower:
        return psel_ > 0;
    }
    return false;
}

void
DrripPolicy::onFill(SetIdx set, WayIdx way)
{
    // A fill is a miss: duel the leader sets.
    if (role(set) == SetRole::LeaderSrrip && psel_ < kPselMax)
        ++psel_;
    else if (role(set) == SetRole::LeaderBrrip && psel_ > -kPselMax)
        --psel_;

    unsigned insertRrpv = kSrripInsert;
    if (insertBrrip(set)) {
        // BRRIP: mostly distant, occasionally long.
        insertRrpv = (++bimodalCounter_ % kBimodalPeriod == 0)
            ? kSrripInsert
            : kMaxRrpv;
    }
    insert(set, way, insertRrpv);
}

std::vector<std::uint64_t>
DrripPolicy::stateSnapshot(SetIdx set) const
{
    auto out = RripPolicy::stateSnapshot(set);
    // Set-dueling state is global and decision-relevant everywhere.
    out.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(psel_)));
    out.push_back(bimodalCounter_);
    return out;
}

} // namespace bvc
