/** @file Unit tests for the stride and stream prefetchers. */

#include <gtest/gtest.h>

#include <algorithm>

#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

TEST(StridePrefetcher, LearnsConstantStride)
{
    StridePrefetcher pf(256, 2);
    std::vector<Addr> out;
    const Addr pc = 0x400;
    for (unsigned i = 0; i < 8; ++i) {
        out.clear();
        pf.observe(pc, 0x10000 + i * 128, true, out);
    }
    ASSERT_FALSE(out.empty());
    // Prefetches run ahead with the learned stride (2 blocks).
    EXPECT_EQ(out[0], 0x10000 + 7 * 128 + 128);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1], 0x10000 + 7 * 128 + 256);
}

TEST(StridePrefetcher, LearnsNegativeStride)
{
    StridePrefetcher pf(256, 1);
    std::vector<Addr> out;
    const Addr pc = 0x404;
    for (unsigned i = 0; i < 8; ++i) {
        out.clear();
        pf.observe(pc, 0x40000 - i * kLineBytes, true, out);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x40000 - 8 * kLineBytes);
}

TEST(StridePrefetcher, NoPrefetchOnRandomAddresses)
{
    StridePrefetcher pf(256, 2);
    Rng rng(1);
    std::vector<Addr> out;
    for (unsigned i = 0; i < 100; ++i)
        pf.observe(0x400, rng.next() & ~0x3FULL, true, out);
    // Random deltas never build confidence.
    EXPECT_LT(out.size(), 6u);
}

TEST(StridePrefetcher, DistinctPcsTrainIndependently)
{
    StridePrefetcher pf(256, 1);
    std::vector<Addr> a, b;
    for (unsigned i = 0; i < 8; ++i) {
        a.clear();
        b.clear();
        pf.observe(0x400, 0x10000 + i * kLineBytes, true, a);
        pf.observe(0x500, 0x90000 + i * 2 * kLineBytes, true, b);
    }
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(a[0], 0x10000 + 8 * kLineBytes);
    EXPECT_EQ(b[0], 0x90000 + 7 * 2 * kLineBytes + 2 * kLineBytes);
}

TEST(StridePrefetcher, SameBlockAccessesAreIgnored)
{
    StridePrefetcher pf(256, 1);
    std::vector<Addr> out;
    for (unsigned i = 0; i < 20; ++i)
        pf.observe(0x400, 0x10000, true, out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, DetectsAscendingStream)
{
    StreamPrefetcher pf(16, 2, 1);
    std::vector<Addr> out;
    for (unsigned i = 0; i < 6; ++i) {
        out.clear();
        pf.observe(0, 0x100000 + i * kLineBytes, true, out);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_GT(out[0], 0x100000 + 5 * kLineBytes);
}

TEST(StreamPrefetcher, DetectsDescendingStream)
{
    StreamPrefetcher pf(16, 1, 1);
    std::vector<Addr> out;
    for (unsigned i = 0; i < 6; ++i) {
        out.clear();
        pf.observe(0, 0x200000 - i * kLineBytes, true, out);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_LT(out[0], 0x200000 - 5 * kLineBytes);
}

TEST(StreamPrefetcher, TracksMultipleConcurrentStreams)
{
    StreamPrefetcher pf(16, 1, 1);
    std::vector<Addr> a, b;
    for (unsigned i = 0; i < 6; ++i) {
        a.clear();
        b.clear();
        pf.observe(0, 0x100000 + i * kLineBytes, true, a);
        pf.observe(0, 0x900000 + i * kLineBytes, true, b);
    }
    EXPECT_FALSE(a.empty());
    EXPECT_FALSE(b.empty());
}

TEST(StreamPrefetcher, TrainedStreamCrossesRegionBoundary)
{
    StreamPrefetcher pf(16, 1, 1);
    std::vector<Addr> out;
    // Train right up to a 4KB boundary, then cross it: the stream must
    // keep prefetching without retraining.
    const Addr base = 0x100000 + 4096 - 4 * kLineBytes;
    for (unsigned i = 0; i < 6; ++i) {
        out.clear();
        pf.observe(0, base + i * kLineBytes, true, out);
    }
    EXPECT_FALSE(out.empty());
}

TEST(StreamPrefetcher, RandomTrafficStaysQuiet)
{
    StreamPrefetcher pf(16, 2, 4);
    Rng rng(3);
    std::vector<Addr> out;
    for (unsigned i = 0; i < 200; ++i)
        pf.observe(0, (rng.next() % (1 << 28)) & ~0x3FULL, true, out);
    EXPECT_LT(out.size(), 30u);
}

TEST(StreamPrefetcher, PrefetchesAreBlockAligned)
{
    StreamPrefetcher pf(16, 2, 2);
    std::vector<Addr> out;
    for (unsigned i = 0; i < 10; ++i)
        pf.observe(0, 0x100000 + i * kLineBytes + 8, true, out);
    for (const Addr pa : out)
        EXPECT_EQ(pa % kLineBytes, 0u);
}

} // namespace
} // namespace bvc
