#include "util/stats.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/logging.hh"

namespace bvc
{

StatGroup::StatGroup(std::string name, std::span<const char *const> names)
    : name_(std::move(name)), names_(names), counters_(names.size())
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (std::string_view(names_[i]) == names_[j])
                panic("StatGroup " + name_ + ": duplicate counter name " +
                      names_[i]);
}

std::uint64_t
StatGroup::get(std::string_view name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (name == names_[i])
            return counters_[i].value();
    return 0;
}

void
StatGroup::resetAll()
{
    for (Counter &c : counters_)
        c.reset();
}

std::string
StatGroup::dump() const
{
    std::vector<std::size_t> order(names_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](std::size_t a,
                                                 std::size_t b) {
        return std::string_view(names_[a]) < names_[b];
    });
    std::ostringstream out;
    for (const std::size_t i : order)
        out << name_ << '.' << names_[i] << ' ' << counters_[i].value()
            << '\n';
    return out.str();
}

StatGroup &
StatGroup::operator+=(const StatGroup &other)
{
    if (other.names_.data() != names_.data() ||
        other.names_.size() != names_.size())
        panic("StatGroup " + name_ + ": += across different counter tables");
    for (std::size_t i = 0; i < counters_.size(); ++i)
        counters_[i] += other.counters_[i].value();
    return *this;
}

} // namespace bvc
