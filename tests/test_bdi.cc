/** @file Unit tests for the BDI codec (the paper's LLC compressor). */

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "compress/bdi.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

using Line = std::array<std::uint8_t, kLineBytes>;

Line
lineOf64(const std::uint64_t (&words)[8])
{
    Line line{};
    for (unsigned i = 0; i < 8; ++i)
        std::memcpy(line.data() + 8 * i, &words[i], 8);
    return line;
}

Line
roundTrip(const BdiCompressor &bdi, const Line &in)
{
    const CompressedBlock block = bdi.compress(in.data());
    Line out{};
    bdi.decompress(block, out.data());
    return out;
}

TEST(Bdi, ZeroLineUsesZerosEncoding)
{
    BdiCompressor bdi;
    Line line{};
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::Zeros);
    EXPECT_EQ(block.sizeBytes(), 1u);
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, RepeatedValueUsesRep8)
{
    BdiCompressor bdi;
    const std::uint64_t v = 0xdeadbeefcafef00dULL;
    Line line = lineOf64({v, v, v, v, v, v, v, v});
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::Rep8);
    EXPECT_EQ(block.sizeBytes(), 8u);
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, SmallIntsUseB8D1)
{
    BdiCompressor bdi;
    Line line = lineOf64({1, 5, 17, 100, 3, 0, 90, 7});
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::B8D1);
    EXPECT_EQ(block.sizeBytes(),
              BdiCompressor::encodedBytes(BdiCompressor::B8D1));
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, PointersUseBase8WithImmediates)
{
    BdiCompressor bdi;
    // Values near one 64-bit base plus small values near zero: the
    // base-delta-IMMEDIATE part of BDI.
    const std::uint64_t base = 0x00007f8812340000ULL;
    Line line = lineOf64({base + 1, 4, base + 100, 0,
                          base + 77, 3, base + 120, 1});
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::B8D1);
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, WideDeltasFallToB8D4)
{
    BdiCompressor bdi;
    const std::uint64_t base = 0x00007f0000000000ULL;
    Line line = lineOf64({base + 0x100000, base + 0x7fffffff, base,
                          base + 0x20000000, base + 5, base + 0xabcdef,
                          base + 0x3000000, base + 42});
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::B8D4);
    EXPECT_EQ(block.sizeBytes(), 41u);
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, Narrow32BitDataUsesBase4)
{
    BdiCompressor bdi;
    Line line{};
    const std::uint32_t base = 0x40000000u;
    for (unsigned i = 0; i < 16; ++i) {
        const std::uint32_t v = base + i * 3;
        std::memcpy(line.data() + 4 * i, &v, 4);
    }
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::B4D1);
    EXPECT_EQ(block.sizeBytes(),
              BdiCompressor::encodedBytes(BdiCompressor::B4D1));
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, RandomDataStaysUncompressed)
{
    BdiCompressor bdi;
    Rng rng(99);
    Line line{};
    for (unsigned i = 0; i < 8; ++i) {
        const std::uint64_t v = rng.next();
        std::memcpy(line.data() + 8 * i, &v, 8);
    }
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::Uncompressed);
    EXPECT_EQ(block.sizeBytes(), kLineBytes);
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, PicksSmallestApplicableEncoding)
{
    BdiCompressor bdi;
    // Qualifies for B8D2 (17+... = 25B) and B8D4 (41B); must pick B8D2.
    Line line = lineOf64({1000, 2000, 3000, 1500, 1200, 900, 2500, 1800});
    const CompressedBlock block = bdi.compress(line.data());
    EXPECT_EQ(block.encoding, BdiCompressor::B8D2);
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, DeltaWraparoundRoundTrips)
{
    BdiCompressor bdi;
    // Deltas that are negative relative to the base.
    const std::uint64_t base = 0x00007fff00000080ULL;
    Line line = lineOf64({base, base - 100, base - 5, base - 128,
                          base + 127, base - 1, base + 5, base - 50});
    EXPECT_EQ(roundTrip(bdi, line), line);
}

TEST(Bdi, CompressedSizeNeverExceedsLine)
{
    BdiCompressor bdi;
    Rng rng(7);
    Line line{};
    for (int trial = 0; trial < 200; ++trial) {
        for (auto &byte : line)
            byte = static_cast<std::uint8_t>(rng.range(256));
        EXPECT_LE(bdi.compress(line.data()).sizeBytes(), kLineBytes);
        EXPECT_EQ(roundTrip(bdi, line), line);
    }
}

TEST(Bdi, SegmentsQuantizedToFourByteBoundaries)
{
    EXPECT_EQ(bytesToSegments(0), 0u);
    EXPECT_EQ(bytesToSegments(1), 1u);
    EXPECT_EQ(bytesToSegments(4), 1u);
    EXPECT_EQ(bytesToSegments(5), 2u);
    EXPECT_EQ(bytesToSegments(17), 5u);
    EXPECT_EQ(bytesToSegments(64), 16u);
    // Sizes past one line violate the compressor contract: clamping
    // would silently record an over-full line as fitting.
    EXPECT_DEATH((void)bytesToSegments(65), "exceeds one line");
    EXPECT_DEATH((void)bytesToSegments(100), "exceeds one line");
}

TEST(Bdi, DecompressionLatencyRules)
{
    BdiCompressor bdi;
    // Zero and uncompressed lines skip the decompressor (Section V).
    EXPECT_EQ(bdi.decompressionCycles(0), 0u);
    EXPECT_EQ(bdi.decompressionCycles(kSegmentsPerLine), 0u);
    EXPECT_EQ(bdi.decompressionCycles(5), 2u);
    EXPECT_EQ(bdi.decompressionCycles(11), 2u);
}

TEST(Bdi, EncodedBytesTable)
{
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::Zeros), 1u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::Rep8), 8u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::B8D1), 17u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::B8D2), 25u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::B8D4), 41u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::B4D1), 22u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::B4D2), 38u);
    EXPECT_EQ(BdiCompressor::encodedBytes(BdiCompressor::B2D1), 38u);
}

// ------------------------------------------------------------------
// Independent size oracle. compressedBytes() and compress() share one
// validation kernel, so comparing them with each other cannot catch a
// kernel bug; this plain reference restates the BDI selection rule
// element by element, with no early exit and no per-width code.

/** Element `i` of `width` bytes, little-endian. */
std::uint64_t
refElem(const Line &line, unsigned width, unsigned i)
{
    std::uint64_t v = 0;
    for (unsigned b = 0; b < width; ++b)
        v |= static_cast<std::uint64_t>(line[i * width + b]) << (8 * b);
    return v;
}

/** `v` read as a two's-complement number of `bits` bits. */
std::int64_t
refSigned(std::uint64_t v, unsigned bits)
{
    if (bits == 64)
        return static_cast<std::int64_t>(v);
    v &= (1ULL << bits) - 1;
    const auto value = static_cast<std::int64_t>(v);
    return (v >> (bits - 1)) != 0 ? value - (1LL << bits) : value;
}

/** True if the W-bit value `v` is within a `deltaBytes` delta of 0. */
bool
refFits(std::uint64_t v, unsigned widthBytes, unsigned deltaBytes)
{
    const std::int64_t s = refSigned(v, 8 * widthBytes);
    const std::int64_t half = 1LL << (8 * deltaBytes - 1);
    return s >= -half && s <= half - 1;
}

/**
 * One base-delta-immediate configuration applies when every element
 * fits a delta around zero or around the base, the first element that
 * does not fit around zero; deltas wrap in the element width.
 */
bool
refApplies(const Line &line, unsigned baseBytes, unsigned deltaBytes)
{
    bool haveBase = false;
    std::uint64_t base = 0;
    bool ok = true;
    for (unsigned i = 0; i < kLineBytes / baseBytes; ++i) {
        const std::uint64_t v = refElem(line, baseBytes, i);
        if (refFits(v, baseBytes, deltaBytes))
            continue;
        if (!haveBase) {
            base = v;
            haveBase = true;
        }
        ok = ok && refFits(v - base, baseBytes, deltaBytes);
    }
    return ok;
}

/** The BDI size of a line: the smallest encoding that applies. */
std::size_t
refBdiBytes(const Line &line)
{
    bool zero = true, rep = true;
    for (unsigned i = 0; i < kLineBytes / 8; ++i) {
        zero = zero && refElem(line, 8, i) == 0;
        rep = rep && refElem(line, 8, i) == refElem(line, 8, 0);
    }
    if (zero)
        return 1;
    if (rep)
        return 8;
    std::size_t best = kLineBytes;
    for (const unsigned baseBytes : {2u, 4u, 8u}) {
        for (unsigned deltaBytes = 1; deltaBytes < baseBytes;
             deltaBytes *= 2) {
            const unsigned elems = kLineBytes / baseBytes;
            // Base, one delta per element, one mask bit per element.
            const std::size_t bytes =
                baseBytes + elems * deltaBytes + elems / 8;
            if (refApplies(line, baseBytes, deltaBytes) && bytes < best)
                best = bytes;
        }
    }
    return best;
}

/** Compare both codec paths and the round trip against the oracle. */
void
expectMatchesOracle(const BdiCompressor &bdi, const Line &line,
                    const char *what)
{
    const std::size_t want = refBdiBytes(line);
    const CompressedBlock block = bdi.compress(line.data());
    ASSERT_EQ(bdi.compressedBytes(line.data()), want) << what;
    ASSERT_EQ(block.sizeBytes(), want) << what;
    Line out{};
    bdi.decompress(block, out.data());
    ASSERT_EQ(out, line) << what;
}

void
putElem(Line &line, unsigned width, unsigned i, std::uint64_t v)
{
    for (unsigned b = 0; b < width; ++b)
        line[i * width + b] = static_cast<std::uint8_t>(v >> (8 * b));
}

TEST(BdiOracle, OracleAgreesOnHandBuiltLines)
{
    // Pin the oracle itself to the examples above before trusting it.
    EXPECT_EQ(refBdiBytes(Line{}), 1u);
    EXPECT_EQ(refBdiBytes(lineOf64({1, 5, 17, 100, 3, 0, 90, 7})), 17u);
    EXPECT_EQ(refBdiBytes(lineOf64({1000, 2000, 3000, 1500, 1200, 900,
                                    2500, 1800})),
              25u);
    Line wrap{};
    // 0x7fff and 0x8000 are 1 apart in 16-bit arithmetic only.
    for (unsigned i = 0; i < 32; ++i)
        putElem(wrap, 2, i, i % 4 == 0 || i % 4 == 3 ? 0x7fff : 0x8000);
    EXPECT_TRUE(refApplies(wrap, 2, 1));
    EXPECT_FALSE(refApplies(wrap, 4, 1));
}

TEST(BdiOracle, BoundaryDeltasMatchOracle)
{
    const BdiCompressor bdi;
    std::size_t lines = 0;
    for (const unsigned baseBytes : {2u, 4u, 8u}) {
        const unsigned widthBits = 8 * baseBytes;
        const std::uint64_t widthMask =
            widthBits == 64 ? ~0ULL : (1ULL << widthBits) - 1;
        const std::uint64_t signBit = 1ULL << (widthBits - 1);
        const unsigned elems = kLineBytes / baseBytes;
        for (unsigned deltaBytes = 1; deltaBytes < baseBytes;
             deltaBytes *= 2) {
            const std::uint64_t half = 1ULL << (8 * deltaBytes - 1);
            // Bases that do not fit around zero, including both sides
            // of the W-bit signed wrap point.
            const std::uint64_t bases[] = {
                half, 0 - half - 1, 0x5a5a5a5a5a5a5a5aULL, signBit - 1,
                signBit, signBit + half, 0xffff};
            const std::uint64_t deltas[] = {half, 0 - half, half - 1,
                                            0 - (half - 1)};
            for (const std::uint64_t rawBase : bases) {
                const std::uint64_t base = rawBase & widthMask;
                if (refFits(base, baseBytes, deltaBytes))
                    continue;
                for (unsigned lane = 0; lane < elems; ++lane) {
                    for (const std::uint64_t delta : deltas) {
                        for (const bool aroundBase : {false, true}) {
                            const std::uint64_t probe =
                                (aroundBase ? base + delta : delta) &
                                widthMask;
                            for (const unsigned at :
                                 {(lane + 1) % elems, elems - 1, 0u}) {
                                if (at == lane)
                                    continue;
                                Line line{};
                                putElem(line, baseBytes, lane, base);
                                putElem(line, baseBytes, at, probe);
                                expectMatchesOracle(bdi, line,
                                                    "boundary");
                                ++lines;
                            }
                        }
                    }
                }
            }
        }
    }
    // W-bit wraparound: 0xffff beside 0x0001 at W=2, and the signed
    // wrap point 0x7fff/0x8000 that a 64-bit subtraction would miss.
    for (const std::uint64_t pair :
         {0x0001ffffULL, 0x80007fffULL, 0x7fff8000ULL}) {
        Line line{};
        for (unsigned i = 0; i < kLineBytes / 4; ++i)
            putElem(line, 4, i, pair);
        expectMatchesOracle(bdi, line, "wraparound");
        putElem(line, 4, 15, 0x12345678);
        expectMatchesOracle(bdi, line, "wraparound, broken last");
        lines += 2;
    }
    EXPECT_GT(lines, 5000u);
}

TEST(BdiOracle, DataPatternsAndSparseLinesMatchOracle)
{
    const BdiCompressor bdi;
    const DataPatternKind kinds[] = {
        DataPatternKind::Zeros,       DataPatternKind::SmallInts,
        DataPatternKind::PointerHeap, DataPatternKind::NarrowInts,
        DataPatternKind::Floats,      DataPatternKind::Random,
        DataPatternKind::MixedGood,   DataPatternKind::MixedPoor,
    };
    Line line{};
    for (const auto kind : kinds) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            const DataPattern pattern(kind, seed);
            for (Addr blk = 0; blk < 500 * kLineBytes; blk += kLineBytes) {
                pattern.fillLine(blk, line.data());
                expectMatchesOracle(bdi, line,
                                    DataPattern::kindName(kind).c_str());
            }
        }
    }

    // Sparse random bytes: mostly zero lines with a few set bytes
    // land on every configuration's edge.
    Rng rng(1609);
    for (int trial = 0; trial < 6000; ++trial) {
        const unsigned oneIn = 2u << (trial % 6);
        for (auto &byte : line)
            byte = rng.range(oneIn) == 0
                ? static_cast<std::uint8_t>(rng.range(256))
                : 0;
        expectMatchesOracle(bdi, line, "sparse");
    }
}

} // namespace
} // namespace bvc
