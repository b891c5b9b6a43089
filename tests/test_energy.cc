/** @file Tests for the Section VI.D energy model. */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"

namespace bvc
{
namespace
{

/** The LLC counters the energy model reads. */
constexpr StatNames kLlc{"accesses",       "demand_hits",    "prefetch_hits",
                         "fills",          "writeback_hits", "data_movements",
                         "compressions",   "decompressions"};

/** The DRAM counters the energy model reads. */
constexpr StatNames kDram{"reads", "writes", "row_closed", "row_conflicts",
                          "row_hits"};

StatGroup
llcStats()
{
    StatGroup stats("llc", kLlc.names);
    stats[kLlc["accesses"]] += 1000;
    stats[kLlc["demand_hits"]] += 600;
    stats[kLlc["prefetch_hits"]] += 50;
    stats[kLlc["fills"]] += 400;
    stats[kLlc["writeback_hits"]] += 100;
    stats[kLlc["data_movements"]] += 80;
    stats[kLlc["compressions"]] += 500;
    stats[kLlc["decompressions"]] += 300;
    return stats;
}

StatGroup
dramStats()
{
    StatGroup stats("dram", kDram.names);
    stats[kDram["reads"]] += 400;
    stats[kDram["writes"]] += 100;
    stats[kDram["row_closed"]] += 50;
    stats[kDram["row_conflicts"]] += 200;
    stats[kDram["row_hits"]] += 250;
    return stats;
}

TEST(Energy, ComponentsArePositive)
{
    const auto llc = llcStats();
    const auto dram = dramStats();
    const EnergyBreakdown e = computeEnergy(llc, dram, 100000, true);
    EXPECT_GT(e.dram, 0.0);
    EXPECT_GT(e.llcTag, 0.0);
    EXPECT_GT(e.llcData, 0.0);
    EXPECT_GT(e.codec, 0.0);
    EXPECT_DOUBLE_EQ(e.total(),
                     e.dram + e.llcTag + e.llcData + e.codec);
}

TEST(Energy, CompressedArchDoublesTagEnergy)
{
    const auto llc = llcStats();
    const auto dram = dramStats();
    const EnergyBreakdown base = computeEnergy(llc, dram, 1000, false);
    const EnergyBreakdown comp = computeEnergy(llc, dram, 1000, true);
    EXPECT_DOUBLE_EQ(comp.llcTag, 2.0 * base.llcTag);
}

TEST(Energy, MissingWordEnablesAddRmwReads)
{
    const auto llc = llcStats();
    const auto dram = dramStats();
    EnergyParams with;
    with.wordEnables = true;
    EnergyParams without;
    without.wordEnables = false;
    const EnergyBreakdown a = computeEnergy(llc, dram, 1000, true, with);
    const EnergyBreakdown b =
        computeEnergy(llc, dram, 1000, true, without);
    // (fills + writeback_hits + movements) extra reads.
    const double extra = (400 + 100 + 80) * with.llcDataRead;
    EXPECT_NEAR(b.llcData - a.llcData, extra, 1e-9);
}

TEST(Energy, WordEnablesIrrelevantForUncompressed)
{
    const auto llc = llcStats();
    const auto dram = dramStats();
    EnergyParams without;
    without.wordEnables = false;
    const EnergyBreakdown a = computeEnergy(llc, dram, 1000, false);
    const EnergyBreakdown b =
        computeEnergy(llc, dram, 1000, false, without);
    EXPECT_DOUBLE_EQ(a.llcData, b.llcData);
}

TEST(Energy, DramEnergyTracksActivationsAndBursts)
{
    StatGroup llc("llc");
    StatGroup dramA("dram", kDram.names), dramB("dram", kDram.names);
    dramA[kDram["reads"]] += 100;
    dramB[kDram["reads"]] += 100;
    dramB[kDram["row_conflicts"]] += 100;
    const EnergyBreakdown a = computeEnergy(llc, dramA, 0, false);
    const EnergyBreakdown b = computeEnergy(llc, dramB, 0, false);
    EXPECT_GT(b.dram, a.dram);
}

TEST(Energy, FewerDramReadsReduceEnergy)
{
    // The core effect behind Figure 14: compression pays for itself
    // through read-traffic reduction.
    const auto llc = llcStats();
    StatGroup dramSmall("dram", kDram.names), dramBig("dram", kDram.names);
    dramSmall[kDram["reads"]] += 300;
    dramSmall[kDram["row_conflicts"]] += 150;
    dramBig[kDram["reads"]] += 400;
    dramBig[kDram["row_conflicts"]] += 200;
    const EnergyBreakdown small =
        computeEnergy(llc, dramSmall, 1000, true);
    const EnergyBreakdown big = computeEnergy(llc, dramBig, 1000, true);
    EXPECT_LT(small.dram, big.dram);
}

TEST(Energy, StaticEnergyScalesWithCycles)
{
    StatGroup llc("llc"), dram("dram");
    const EnergyBreakdown shortRun =
        computeEnergy(llc, dram, 1000, false);
    const EnergyBreakdown longRun =
        computeEnergy(llc, dram, 100000, false);
    EXPECT_GT(longRun.dram, shortRun.dram);
}

} // namespace
} // namespace bvc
