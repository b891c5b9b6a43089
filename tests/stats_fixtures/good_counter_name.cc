// Compile-only fixture: a counter name that is in the component's
// StatNames table resolves to its index at compile time. Identical to
// bad_counter_name.cc except for the one name that file misspells.
#include "util/stats.hh"

namespace
{

constexpr bvc::StatNames kStats{"demand_hits", "demand_misses"};

static_assert(kStats["demand_misses"] == 1);

} // namespace

void
countHit(bvc::StatGroup &stats)
{
    ++stats[kStats["demand_hits"]];
}
