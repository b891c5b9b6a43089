/**
 * @file
 * Event counters. Each simulated component declares its counter names
 * once, in a constexpr StatNames table, and keeps the counters in a
 * StatGroup built over that table. Hot paths index the group with a
 * name the compiler has already turned into an array index
 * (`++stats_[kStats["demand_hits"]]`), so a misspelled name fails to
 * compile; reports and benches read values back by name with get().
 */

#ifndef BVC_UTIL_STATS_HH_
#define BVC_UTIL_STATS_HH_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bvc
{

/** A single 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Count one event. */
    Counter &operator++() { ++value_; return *this; }
    /** Count `n` events at once. */
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    /** Events counted since construction or the last reset(). */
    std::uint64_t value() const { return value_; }
    /** Zero the counter. */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A component's counter names, declared once as
 * `static constexpr StatNames kStats{"accesses", "demand_hits", ...}`.
 * Indexing with a name is evaluated by the compiler: an unknown name
 * throws inside the consteval function and the build fails.
 */
template <std::size_t N>
struct StatNames
{
    const char *names[N]; //!< the counter names, in index order

    /** Index of `name` in the table; a compile error if absent. */
    consteval std::size_t
    operator[](std::string_view name) const
    {
        for (std::size_t i = 0; i < N; ++i)
            if (name == names[i])
                return i;
        throw "StatNames: unknown counter name";
    }
};

template <typename... T>
StatNames(T...) -> StatNames<sizeof...(T)>;

/**
 * One component's counters, named by a StatNames table the group
 * refers to but does not own (the table must outlive the group; a
 * static constexpr member does). Counters exist only for the names in
 * the table: nothing can add one later.
 */
class StatGroup
{
  public:
    /**
     * @param name  prefix of every dump() line ("llc", "dram", ...)
     * @param names the counter names; panics on a duplicate
     */
    explicit StatGroup(std::string name,
                       std::span<const char *const> names = {});

    /** Counter at table index `i` (use kStats["name"] for `i`). */
    Counter &operator[](std::size_t i) { return counters_[i]; }

    /**
     * Value of the counter called `name`; 0 if the table has no such
     * name, so callers may read an organization-specific counter
     * ("victim_hits") from any LLC.
     */
    std::uint64_t get(std::string_view name) const;

    /** Reset every counter in the group (e.g., after cache warmup). */
    void resetAll();

    /** Render "group.counter value" lines sorted by counter name. */
    std::string dump() const;

    /** The group's dump prefix. */
    const std::string &name() const { return name_; }

    /** The counter names, in table (not sorted) order. */
    std::span<const char *const> names() const { return names_; }

    /** Add `other`'s counters; panics unless it uses the same table. */
    StatGroup &operator+=(const StatGroup &other);

  private:
    std::string name_;
    std::span<const char *const> names_;
    std::vector<Counter> counters_;
};

} // namespace bvc

#endif // BVC_UTIL_STATS_HH_
