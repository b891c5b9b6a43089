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

TEST(StatGroup, CounterStartsAtZero)
{
    StatGroup group("g");
    EXPECT_EQ(group.get("x"), 0u);
    EXPECT_EQ(group.counter("x").value(), 0u);
}

TEST(StatGroup, IncrementAndAdd)
{
    StatGroup group("g");
    ++group.counter("hits");
    group.counter("hits") += 4;
    EXPECT_EQ(group.get("hits"), 5u);
}

TEST(StatGroup, SameNameSameCounter)
{
    StatGroup group("g");
    ++group.counter("a");
    ++group.counter("a");
    EXPECT_EQ(group.get("a"), 2u);
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup group("g");
    group.counter("a") += 3;
    group.counter("b") += 9;
    group.resetAll();
    EXPECT_EQ(group.get("a"), 0u);
    EXPECT_EQ(group.get("b"), 0u);
}

TEST(StatGroup, DumpContainsNameAndValues)
{
    StatGroup group("llc");
    group.counter("misses") += 7;
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("llc.misses 7"), std::string::npos);
}

TEST(StatGroup, NamesSorted)
{
    StatGroup group("g");
    group.counter("zebra");
    group.counter("apple");
    const auto names = group.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "apple");
    EXPECT_EQ(names[1], "zebra");
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
