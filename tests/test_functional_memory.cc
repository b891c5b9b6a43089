/** @file Unit tests for the sparse functional memory. */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "memory/functional_memory.hh"

namespace bvc
{
namespace
{

/** Line init that fills each byte from its block address and logs calls. */
struct RecordingInit
{
    std::vector<Addr> *calls;

    void
    operator()(Addr blk, std::uint8_t *out) const
    {
        calls->push_back(blk);
        for (std::size_t i = 0; i < kLineBytes; ++i)
            out[i] = static_cast<std::uint8_t>((blk >> kLineShift) + i);
    }
};

/** The 8-byte word RecordingInit gives 8-byte-aligned `addr`. */
std::uint64_t
initWord(Addr addr)
{
    std::uint8_t bytes[kLineBytes];
    std::vector<Addr> unused;
    RecordingInit{&unused}(blockAddr(addr), bytes);
    std::uint64_t value = 0;
    std::memcpy(&value, bytes + (blockOffset(addr) & ~7u), 8);
    return value;
}

TEST(FunctionalMemory, DefaultsToZeroMemory)
{
    FunctionalMemory mem;
    const std::uint8_t *line = mem.line(0x1000);
    for (std::size_t i = 0; i < kLineBytes; ++i)
        EXPECT_EQ(line[i], 0);
    EXPECT_EQ(mem.load64(0x1008), 0u);
}

TEST(FunctionalMemory, LazyInitializerFillsLines)
{
    FunctionalMemory mem([](Addr blk, std::uint8_t *out) {
        for (std::size_t i = 0; i < kLineBytes; ++i)
            out[i] = static_cast<std::uint8_t>(blk >> 6);
    });
    EXPECT_EQ(mem.line(4 * kLineBytes)[0], 4);
    EXPECT_EQ(mem.line(5 * kLineBytes)[63], 5);
}

TEST(FunctionalMemory, StoreThenLoadRoundTrips)
{
    FunctionalMemory mem;
    mem.store64(0x2010, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.load64(0x2010), 0xdeadbeefcafef00dULL);
}

TEST(FunctionalMemory, StoreOnlyAffectsItsWord)
{
    FunctionalMemory mem([](Addr, std::uint8_t *out) {
        std::memset(out, 0x11, kLineBytes);
    });
    mem.store64(0x3008, 0);
    EXPECT_EQ(mem.load64(0x3000), 0x1111111111111111ULL);
    EXPECT_EQ(mem.load64(0x3008), 0u);
    EXPECT_EQ(mem.load64(0x3010), 0x1111111111111111ULL);
}

TEST(FunctionalMemory, UnalignedAddressesSnapToWord)
{
    FunctionalMemory mem;
    mem.store64(0x4003, 42); // snaps to 0x4000
    EXPECT_EQ(mem.load64(0x4000), 42u);
    EXPECT_EQ(mem.load64(0x4005), 42u);
}

TEST(FunctionalMemory, StorePersistsOverInitializer)
{
    bool initialized = false;
    FunctionalMemory mem([&](Addr, std::uint8_t *out) {
        initialized = true;
        std::memset(out, 0xFF, kLineBytes);
    });
    mem.store64(0x5000, 7);
    EXPECT_TRUE(initialized); // store materialized the line first
    EXPECT_EQ(mem.load64(0x5000), 7u);
    // The rest of the line keeps its initialized content.
    EXPECT_EQ(mem.load64(0x5008), ~0ULL);
}

TEST(FunctionalMemory, TouchedLinesCountsUniqueBlocks)
{
    FunctionalMemory mem;
    mem.line(0);
    mem.line(8);      // same block
    mem.line(kLineBytes);
    mem.store64(2 * kLineBytes, 1);
    EXPECT_EQ(mem.touchedLines(), 3u);
}

// Lines 15/16 straddle a 1 KB page boundary and 63/64 a 4 KB one.
TEST(FunctionalMemory, AdjacentLinesAcrossPageBoundaryStayDistinct)
{
    std::vector<Addr> calls;
    FunctionalMemory mem(RecordingInit{&calls});
    for (const Addr last : {15 * kLineBytes, 63 * kLineBytes}) {
        const Addr first = last + kLineBytes;
        mem.store64(last + 56, 0x1111);
        mem.store64(first, 0x2222);
        EXPECT_EQ(mem.load64(last + 56), 0x1111u);
        EXPECT_EQ(mem.load64(first), 0x2222u);
        // The neighbouring words keep their own line's initial content.
        EXPECT_EQ(mem.load64(last + 48), initWord(last + 48));
        EXPECT_EQ(mem.load64(first + 8), initWord(first + 8));
    }
    EXPECT_EQ(calls, (std::vector<Addr>{15 * kLineBytes, 16 * kLineBytes,
                                        63 * kLineBytes, 64 * kLineBytes}));
    EXPECT_EQ(mem.touchedLines(), 4u);
}

TEST(FunctionalMemory, AlternatingPagesKeepTheirOwnStores)
{
    std::vector<Addr> calls;
    FunctionalMemory mem(RecordingInit{&calls});
    const Addr a = 0x10000;
    const Addr b = 0x90000;
    for (std::uint64_t i = 0; i < 64; ++i) {
        mem.store64(a + 8 * i, i);
        mem.store64(b + 8 * i, ~i);
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(mem.load64(a + 8 * i), i);
        EXPECT_EQ(mem.load64(b + 8 * i), ~i);
    }
    EXPECT_EQ(calls.size(), 16u);
    EXPECT_EQ(mem.touchedLines(), 16u);
}

TEST(FunctionalMemory, PageZeroAsFirstAccess)
{
    std::vector<Addr> calls;
    FunctionalMemory mem(RecordingInit{&calls});
    EXPECT_EQ(mem.load64(8), initWord(8));
    EXPECT_EQ(calls, std::vector<Addr>{0});
    mem.store64(0, 99);
    EXPECT_EQ(mem.load64(0), 99u);
    EXPECT_EQ(mem.touchedLines(), 1u);

    FunctionalMemory zeros;
    zeros.store64(8, 5);
    EXPECT_EQ(zeros.load64(0), 0u);
    EXPECT_EQ(zeros.load64(8), 5u);
    EXPECT_EQ(zeros.touchedLines(), 1u);
}

// MultiCoreSystem gives core i the address-space slice (i + 1) << 42.
TEST(FunctionalMemory, MultiCoreSliceOffsets)
{
    std::vector<Addr> calls;
    FunctionalMemory mem(RecordingInit{&calls});
    std::vector<Addr> expected;
    for (const unsigned core : {0u, 15u}) {
        const Addr base = static_cast<Addr>(core + 1) << 42;
        EXPECT_EQ(mem.load64(base + 0x40), initWord(base + 0x40));
        mem.store64(base + 0x1008, core + 7);
        expected.push_back(base + 0x40);
        expected.push_back(base + 0x1000);
    }
    EXPECT_EQ(mem.load64((Addr{1} << 42) + 0x1008), 7u);
    EXPECT_EQ(mem.load64((Addr{16} << 42) + 0x1008), 22u);
    EXPECT_EQ(mem.load64((Addr{16} << 42) + 0x1000),
              initWord((Addr{16} << 42) + 0x1000));
    EXPECT_EQ(calls, expected);
    EXPECT_EQ(mem.touchedLines(), 4u);
}

TEST(FunctionalMemory, TouchedLinesCountsLinesNotPages)
{
    FunctionalMemory spread;
    spread.line(0);
    spread.line(0x10000);
    spread.store64(0x20000, 1);
    EXPECT_EQ(spread.touchedLines(), 3u);

    FunctionalMemory dense;
    dense.line(0x400);
    dense.store64(0x448, 1);
    dense.load64(0x400);
    EXPECT_EQ(dense.touchedLines(), 2u);
}

TEST(FunctionalMemory, InitRunsOncePerLineWithItsBlockAddress)
{
    std::vector<Addr> calls;
    FunctionalMemory mem(RecordingInit{&calls});
    mem.line(0x5048);
    mem.store64(0x5078, 1);
    mem.load64(0x5000);
    mem.line(0x53C5);
    mem.line(0x5040);
    mem.store64(0x5008, 2);
    mem.load64(0x53F8);
    EXPECT_EQ(calls, (std::vector<Addr>{0x5040, 0x5000, 0x53C0}));
    EXPECT_EQ(mem.load64(0x5040), initWord(0x5040));
    EXPECT_EQ(mem.load64(0x53C0), initWord(0x53C0));
}

// TracedSystem default-constructs its memory and move-assigns the real
// one in; both objects must stay independent and usable afterwards.
TEST(FunctionalMemory, MoveAssignKeepsBothObjectsIndependent)
{
    std::vector<Addr> calls;
    FunctionalMemory dst;
    dst.store64(0x2008, 1); // dst's last access is the page replaced below
    FunctionalMemory src(RecordingInit{&calls});
    src.store64(0x2040, 0xabc);
    src.store64(0x2008, 0xdef); // src's last access is the page it hands over

    dst = std::move(src);
    EXPECT_EQ(dst.load64(0x2008), 0xdefu);
    EXPECT_EQ(dst.load64(0x2040), 0xabcu);
    EXPECT_EQ(dst.load64(0x2048), initWord(0x2048));
    EXPECT_EQ(dst.touchedLines(), 2u);

    src.store64(0x2008, 0x123);
    EXPECT_EQ(src.load64(0x2008), 0x123u);
    EXPECT_EQ(dst.load64(0x2008), 0xdefu);
    dst.store64(0x2010, 5);
    EXPECT_EQ(dst.load64(0x2010), 5u);
    EXPECT_NE(src.load64(0x2010), 5u);

    FunctionalMemory constructed(std::move(dst));
    EXPECT_EQ(constructed.load64(0x2008), 0xdefu);
    EXPECT_EQ(constructed.load64(0x2010), 5u);
    dst.store64(0x2008, 0x456);
    EXPECT_EQ(dst.load64(0x2008), 0x456u);
    EXPECT_EQ(constructed.load64(0x2008), 0xdefu);
}

} // namespace
} // namespace bvc
