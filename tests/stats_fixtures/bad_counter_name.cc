// Compile-only fixture that must fail to compile: a counter name that
// is not in the component's StatNames table (here a typo) throws inside
// the consteval lookup. Identical to good_counter_name.cc except for
// that one name.
#include "util/stats.hh"

namespace
{

constexpr bvc::StatNames kStats{"demand_hits", "demand_misses"};

static_assert(kStats["demand_misses"] == 1);

} // namespace

void
countHit(bvc::StatGroup &stats)
{
    ++stats[kStats["demand_hit"]];
}
