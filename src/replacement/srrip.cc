#include "replacement/srrip.hh"

namespace bvc
{

SrripPolicy::SrripPolicy(std::size_t sets, std::size_t ways)
    : RripPolicy(sets, ways)
{
}

void
SrripPolicy::onFill(SetIdx set, WayIdx way)
{
    insert(set, way, kInsertRrpv);
}

} // namespace bvc
