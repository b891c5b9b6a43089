#include "coherence/coherence.hh"

#include <bit>

#include "util/logging.hh"

namespace bvc
{

const char *
coherenceKindName(CoherenceKind kind)
{
    switch (kind) {
      case CoherenceKind::None: return "none";
      case CoherenceKind::Msi: return "MSI";
      case CoherenceKind::Mesi: return "MESI";
    }
    return "?";
}

CoherenceDirectory::CoherenceDirectory(CoherenceKind kind,
                                       std::size_t cores)
    : kind_(kind),
      cores_(cores),
      stats_("coherence", kStats.names)
{
    panicIf(kind_ == CoherenceKind::None,
            "CoherenceDirectory: construct only for MSI/MESI "
            "(CoherenceKind::None means no directory at all)");
    panicIf(cores_ == 0 || cores_ > kMaxCores,
            "CoherenceDirectory: core count must be in [1, 64] "
            "(sharer masks are one 64-bit word)");
}

CoherenceAction
CoherenceDirectory::onRead(CoreId core, Addr blk)
{
    panicIf(core.get() >= cores_, "CoherenceDirectory: core out of "
                                  "range");
    ++stats_[kStats["reads"]];
    const std::uint64_t bit = std::uint64_t{1} << core.get();
    Entry &e = dir_[blk];
    CoherenceAction action;

    switch (e.state) {
      case State::Invalid:
        e.sharers = bit;
        if (kind_ == CoherenceKind::Mesi) {
            // MESI: the sole reader gets the block exclusive-clean,
            // so a later write by the same core upgrades silently.
            e.state = State::Exclusive;
            ++stats_[kStats["exclusive_grants"]];
        } else {
            e.state = State::Shared;
        }
        break;
      case State::Modified:
      case State::Exclusive:
        if ((e.sharers & bit) == 0) {
            // Remote owner: its possibly-dirty copy must flush to the
            // shared LLC but may stay resident in Shared state.
            action.downgrade = e.sharers;
            stats_[kStats["downgrades_sent"]] +=
                std::popcount(action.downgrade);
            e.sharers |= bit;
            e.state = State::Shared;
        }
        // Owner re-reading its own block: no transition.
        break;
      case State::Shared:
        e.sharers |= bit;
        break;
    }
    return action;
}

CoherenceAction
CoherenceDirectory::onWrite(CoreId core, Addr blk)
{
    panicIf(core.get() >= cores_, "CoherenceDirectory: core out of "
                                  "range");
    ++stats_[kStats["writes"]];
    const std::uint64_t bit = std::uint64_t{1} << core.get();
    Entry &e = dir_[blk];
    CoherenceAction action;

    if (e.state == State::Modified && e.sharers == bit)
        return action; // already the sole modified owner

    if (kind_ == CoherenceKind::Mesi && e.state == State::Exclusive &&
        e.sharers == bit) {
        // The MESI payoff: E -> M with no traffic at all.
        ++stats_[kStats["silent_upgrades"]];
    } else {
        action.invalidate = e.sharers & ~bit;
        stats_[kStats["invalidations_sent"]] +=
            std::popcount(action.invalidate);
        if (e.state != State::Invalid && (e.sharers & bit) != 0)
            ++stats_[kStats["upgrades"]]; // S/owner-sharing -> M
    }
    e.sharers = bit;
    e.state = State::Modified;
    return action;
}

std::uint64_t
CoherenceDirectory::onLlcEviction(Addr blk)
{
    const auto it = dir_.find(blk);
    if (it == dir_.end())
        return 0;
    const std::uint64_t mask = it->second.sharers;
    dir_.erase(it);
    ++stats_[kStats["llc_evictions"]];
    return mask;
}

std::uint64_t
CoherenceDirectory::sharers(Addr blk) const
{
    const auto it = dir_.find(blk);
    return it == dir_.end() ? 0 : it->second.sharers;
}

CoherenceDirectory::State
CoherenceDirectory::state(Addr blk) const
{
    const auto it = dir_.find(blk);
    return it == dir_.end() ? State::Invalid : it->second.state;
}

} // namespace bvc
