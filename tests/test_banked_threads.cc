/**
 * @file
 * Pins the BankedLlc locking contract the thread-safety annotations
 * now enforce at compile time (core/banked_llc.hh): disjoint banks may
 * be driven from distinct host threads concurrently, and the
 * aggregation paths — stats(), validLines(), name() — take each bank's
 * lock, so a measurement thread can run against in-flight accesses
 * without tearing a bank's counters. Before this contract was
 * machine-checked, rebuildAggregate() and name() read bank state with
 * no lock at all; this test races them against writers and is part of
 * the TSan CI job's regex, where the unlocked code fails.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "compress/factory.hh"
#include "core/banked_llc.hh"
#include "sim/system.hh"
#include "trace/data_patterns.hh"

namespace bvc
{
namespace
{

/**
 * Byte stride between adjacent banks: bankOf flips from 0 to 1 at
 * 1 << bankShift, so probing powers of two recovers the shift without
 * widening the BankedLlc API.
 */
Addr
bankStride(const BankedLlc &banked)
{
    Addr stride = kLineBytes;
    while (banked.bankOf(stride) == 0)
        stride <<= 1;
    return stride;
}

/**
 * The i-th distinct block address served by bank `b`: walk the bank's
 * own stripe line by line, then jump a full bank rotation so the bank
 * bits are untouched.
 */
Addr
bankLocalBlock(const BankedLlc &banked, Addr stride, std::size_t b,
               std::size_t i)
{
    const std::size_t linesPerStripe = stride / kLineBytes;
    const Addr rotation = stride * banked.numBanks();
    return static_cast<Addr>(b) * stride +
           static_cast<Addr>(i % linesPerStripe) * kLineBytes +
           static_cast<Addr>(i / linesPerStripe) * rotation;
}

TEST(BankedThreads, DisjointBankWritersRaceAggregationSafely)
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    cfg.llcBanks = 4;
    const auto comp = makeCompressor(cfg.compressor);
    const auto llc = makeLlc(cfg, *comp);
    auto *banked = dynamic_cast<BankedLlc *>(llc.get());
    ASSERT_NE(banked, nullptr);
    ASSERT_EQ(banked->numBanks(), 4u);
    const Addr stride = bankStride(*banked);

    constexpr std::size_t kAccessesPerThread = 4000;
    std::atomic<bool> start{false};
    std::atomic<bool> done{false};
    std::atomic<bool> readOnce{false};

    // One writer per bank, each touching ONLY addresses its bank
    // serves — the documented disjoint-banks contract.
    std::vector<std::thread> writers;
    for (std::size_t b = 0; b < banked->numBanks(); ++b) {
        writers.emplace_back([&, b] {
            const DataPattern pattern(DataPatternKind::MixedGood,
                                      17 + b);
            std::uint8_t line[kLineBytes];
            while (!start.load(std::memory_order_acquire)) {
            }
            for (std::size_t i = 0; i < kAccessesPerThread; ++i) {
                const Addr blk =
                    bankLocalBlock(*banked, stride, b, i * 3);
                ASSERT_EQ(banked->bankOf(blk), b);
                pattern.fillLine(blk, line);
                (void)llc->access(blk,
                                  (i & 7) == 0 ? AccessType::Prefetch
                                               : AccessType::Read,
                                  line);
            }
        });
    }

    // The measurement thread hammers the aggregation paths the whole
    // time the writers run. Every read below takes per-bank locks
    // internally; under TSan this is the regression test for the
    // previously unlocked rebuildAggregate()/name() reads.
    std::thread reader([&] {
        while (!start.load(std::memory_order_acquire)) {
        }
        std::uint64_t sink = 0;
        while (!done.load(std::memory_order_acquire)) {
            sink += llc->stats().get("accesses");
            sink += llc->validLines();
            sink += llc->name().size();
            readOnce.store(true, std::memory_order_release);
        }
        EXPECT_GT(sink, 0u);
    });

    start.store(true, std::memory_order_release);
    for (std::thread &t : writers)
        t.join();
    // On a loaded host the writers can finish before the reader is
    // first scheduled; stop it only after it has read at least once.
    while (!readOnce.load(std::memory_order_acquire)) {
    }
    done.store(true, std::memory_order_release);
    reader.join();

    // Every access must have landed exactly once in some bank.
    EXPECT_EQ(llc->stats().get("accesses"),
              static_cast<std::uint64_t>(banked->numBanks()) *
                  kAccessesPerThread);
}

TEST(BankedThreads, AggregateMatchesPerBankSumAfterTheRace)
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::Uncompressed;
    cfg.llcBanks = 2;
    const auto comp = makeCompressor(cfg.compressor);
    const auto llc = makeLlc(cfg, *comp);
    auto *banked = dynamic_cast<BankedLlc *>(llc.get());
    ASSERT_NE(banked, nullptr);
    const Addr stride = bankStride(*banked);

    constexpr std::size_t kAccessesPerThread = 2000;
    std::vector<std::thread> writers;
    for (std::size_t b = 0; b < banked->numBanks(); ++b) {
        writers.emplace_back([&, b] {
            const DataPattern pattern(DataPatternKind::Zeros, 5);
            std::uint8_t line[kLineBytes];
            for (std::size_t i = 0; i < kAccessesPerThread; ++i) {
                const Addr blk =
                    bankLocalBlock(*banked, stride, b, i);
                pattern.fillLine(blk, line);
                (void)llc->access(blk, AccessType::Read, line);
            }
        });
    }
    for (std::thread &t : writers)
        t.join();

    std::uint64_t perBank = 0;
    for (std::size_t b = 0; b < banked->numBanks(); ++b)
        perBank += banked->bank(b).stats().get("accesses");
    EXPECT_EQ(llc->stats().get("accesses"), perBank);
    EXPECT_EQ(perBank, static_cast<std::uint64_t>(
                           banked->numBanks()) *
                           kAccessesPerThread);
}

} // namespace
} // namespace bvc
