/** @file Unit tests for stats, histogram and table utilities. */

#include <gtest/gtest.h>

#include <string>

#include "util/histogram.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace bvc
{
namespace
{

constexpr StatNames kNames{"zebra", "hits", "apple"};

TEST(StatGroup, CountersStartAtZero)
{
    StatGroup group("g", kNames.names);
    EXPECT_EQ(group[kNames["hits"]].value(), 0u);
    EXPECT_EQ(group.get("hits"), 0u);
}

TEST(StatGroup, IncrementAndAdd)
{
    StatGroup group("g", kNames.names);
    ++group[kNames["hits"]];
    group[kNames["hits"]] += 4;
    EXPECT_EQ(group.get("hits"), 5u);
    EXPECT_EQ(group.get("apple"), 0u);
}

TEST(StatGroup, AbsentNameReadsZero)
{
    StatGroup group("g", kNames.names);
    group[kNames["hits"]] += 3;
    EXPECT_EQ(group.get("victim_hits"), 0u);
    EXPECT_EQ(StatGroup("empty").get("hits"), 0u);
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup group("g", kNames.names);
    group[kNames["apple"]] += 3;
    group[kNames["zebra"]] += 9;
    group.resetAll();
    EXPECT_EQ(group.get("apple"), 0u);
    EXPECT_EQ(group.get("zebra"), 0u);
}

TEST(StatGroup, DumpIsSortedByName)
{
    StatGroup group("llc", kNames.names);
    group[kNames["hits"]] += 7;
    EXPECT_EQ(group.dump(), "llc.apple 0\nllc.hits 7\nllc.zebra 0\n");
}

TEST(StatGroup, NamesKeepTableOrder)
{
    StatGroup group("g", kNames.names);
    const auto names = group.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_STREQ(names[0], "zebra");
    EXPECT_STREQ(names[2], "apple");
}

TEST(StatGroup, PlusEqualsSumsCounterByCounter)
{
    StatGroup a("g", kNames.names);
    StatGroup b("g", kNames.names);
    a[kNames["hits"]] += 2;
    b[kNames["hits"]] += 5;
    b[kNames["apple"]] += 1;
    a += b;
    EXPECT_EQ(a.get("hits"), 7u);
    EXPECT_EQ(a.get("apple"), 1u);
    EXPECT_EQ(b.get("hits"), 5u);
}

TEST(StatGroupDeathTest, DuplicateNamesAreRejected)
{
    static constexpr StatNames kDup{"hits", "misses", "hits"};
    EXPECT_DEATH(StatGroup("g", kDup.names), "duplicate counter name hits");
}

TEST(StatGroupDeathTest, PlusEqualsAcrossTablesPanics)
{
    // Same names, different table: += sums by index, so it must refuse.
    static constexpr StatNames kOther{"zebra", "hits", "apple"};
    StatGroup a("g", kNames.names);
    const StatGroup b("g", kOther.names);
    EXPECT_DEATH(a += b, "different counter tables");
}

TEST(Histogram, MeanOfSamples)
{
    Histogram h(10);
    h.add(2);
    h.add(4);
    h.add(6);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.samples(), 3u);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(4);
    h.add(100);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, EmptyMeanIsZero)
{
    Histogram h(4);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileMedian)
{
    Histogram h(16);
    for (std::uint64_t v = 0; v < 10; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(Histogram, DumpSkipsEmptyBuckets)
{
    Histogram h(8);
    h.add(1);
    h.add(1);
    h.add(5);
    EXPECT_EQ(h.dump(), "1:2 5:1");
}

TEST(Table, RendersAlignedColumns)
{
    Table table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 3), "2.000");
}

TEST(TableDeathTest, RowArityMismatchPanics)
{
    Table table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "arity");
}

TEST(LoggingDeathTest, PanicIfLiteralPrintsMessage)
{
    panicIf(false, "a literal longer than the short-string buffer");
    EXPECT_DEATH(panicIf(true, "a literal longer than the short-string "
                               "buffer"),
                 "panic: a literal longer than the short-string buffer");
}

TEST(LoggingDeathTest, PanicIfBuiltStringPrintsMessage)
{
    const std::string built = "built message " + std::to_string(42);
    panicIf(false, built);
    EXPECT_DEATH(panicIf(true, built), "panic: built message 42");
}

} // namespace
} // namespace bvc
