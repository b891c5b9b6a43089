/**
 * @file
 * google-benchmark microbenchmarks of the compression codecs: single-
 * line compress/decompress throughput per algorithm and data pattern,
 * plus the allocation-free size-only path (Compressor::compressedBytes)
 * the cache models run on. Not a paper figure, but grounds the 2-cycle
 * decompression-latency assumption (Section V) in the codecs' actual
 * work per line.
 *
 * The sizeOne/bdi_size_<encoding> cases time the BDI size path on one
 * crafted line per encoding, so each base-delta configuration's cost is
 * on record; bdi_size_late_fail is the early exit's worst case, a line
 * that every configuration walks to its last element before failing.
 *
 * Run with --smoke for a self-contained encode-path vs size-path
 * comparison over a mixed corpus (used by CI): prints per-codec
 * throughput and speedup, and exits non-zero if the two paths ever
 * disagree on a size or a crafted BDI line misses its encoding.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "compress/bdi.hh"
#include "compress/factory.hh"
#include "trace/data_patterns.hh"

namespace
{

using bvc::kLineBytes;
using Line = std::array<std::uint8_t, kLineBytes>;
using Bdi = bvc::BdiCompressor;

std::array<std::uint8_t, kLineBytes>
lineFor(bvc::DataPatternKind kind)
{
    const bvc::DataPattern pattern(kind, 7);
    std::array<std::uint8_t, kLineBytes> line{};
    pattern.fillLine(0x40 * 123, line.data());
    return line;
}

void
compressOne(benchmark::State &state, bvc::CompressorKind kind,
            bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto line = lineFor(pattern);
    for (auto _ : state) {
        auto block = comp->compress(line.data());
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

void
sizeOne(benchmark::State &state, bvc::CompressorKind kind,
        bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto line = lineFor(pattern);
    for (auto _ : state) {
        auto bytes = comp->compressedBytes(line.data());
        benchmark::DoNotOptimize(bytes);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

/** A line of `width`-byte little-endian elements, element i = f(i). */
template <typename F>
Line
lineOfElems(unsigned width, F f)
{
    Line line{};
    for (unsigned i = 0; i < kLineBytes / width; ++i) {
        const std::uint64_t v = f(i);
        std::memcpy(line.data() + i * width, &v, width);
    }
    return line;
}

/**
 * A line whose smallest BDI encoding is `enc` (B8D1 through B8D4 or
 * Uncompressed); each fails every configuration tried before it.
 */
Line
bdiLine(Bdi::Encoding enc)
{
    switch (enc) {
      case Bdi::B8D1:
        return lineOfElems(8, [](unsigned i) {
            return 0x00007f8812340000ULL + 13 * i;
        });
      case Bdi::B4D1:
        return lineOfElems(4, [](unsigned i) {
            return 0x40000000ULL + 3 * i;
        });
      case Bdi::B8D2:
        return lineOfElems(8, [](unsigned i) {
            return 1000ULL + 997 * i;
        });
      case Bdi::B2D1:
        return lineOfElems(2, [](unsigned i) {
            return 0x4000ULL + 3 * i;
        });
      case Bdi::B4D2:
        return lineOfElems(4, [](unsigned i) {
            return 0x40000000ULL + 1000 * i;
        });
      case Bdi::B8D4:
        return lineOfElems(8, [](unsigned i) {
            return 0x00007f0010000000ULL + 0x100000ULL * i;
        });
      case Bdi::Uncompressed:
        return lineFor(bvc::DataPatternKind::Random);
      case Bdi::Zeros:
      case Bdi::Rep8:
      case Bdi::NumEncodings:
        break;
    }
    std::abort();
}

/**
 * The early exit's worst case: element 0 of every width (0x140004000,
 * 0x40004000, 0x4000) is too wide to fit around zero at any delta and
 * becomes the base, the middle elements fit around zero, and only the
 * last element of every width fits neither, so each of the six
 * configurations walks the whole line before it falls back to
 * Uncompressed.
 */
Line
lateFailLine()
{
    return lineOfElems(8, [](unsigned i) -> std::uint64_t {
        if (i == 0)
            return 0x0000000140004000ULL;
        return i == 7 ? 0x5a5aULL << 48 : i;
    });
}

void
sizeBdiLine(benchmark::State &state, const Line &line)
{
    const Bdi bdi;
    for (auto _ : state) {
        auto bytes = bdi.compressedBytes(line.data());
        benchmark::DoNotOptimize(bytes);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

void
roundTripOne(benchmark::State &state, bvc::CompressorKind kind,
             bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto line = lineFor(pattern);
    std::array<std::uint8_t, kLineBytes> out{};
    for (auto _ : state) {
        const auto block = comp->compress(line.data());
        comp->decompress(block, out.data());
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

/** Mixed corpus spanning every data pattern (what the traces produce). */
std::vector<std::array<std::uint8_t, kLineBytes>>
mixedCorpus()
{
    const bvc::DataPatternKind kinds[] = {
        bvc::DataPatternKind::Zeros,      bvc::DataPatternKind::SmallInts,
        bvc::DataPatternKind::PointerHeap, bvc::DataPatternKind::NarrowInts,
        bvc::DataPatternKind::Floats,     bvc::DataPatternKind::Random,
        bvc::DataPatternKind::MixedGood,  bvc::DataPatternKind::MixedPoor,
    };
    std::vector<std::array<std::uint8_t, kLineBytes>> corpus;
    for (const auto kind : kinds) {
        const bvc::DataPattern pattern(kind, 42);
        for (unsigned i = 0; i < 256; ++i) {
            std::array<std::uint8_t, kLineBytes> line{};
            pattern.fillLine(static_cast<bvc::Addr>(i) * kLineBytes,
                             line.data());
            corpus.push_back(line);
        }
    }
    return corpus;
}

/**
 * Encode-path vs size-path comparison over the mixed corpus. Returns
 * false if compressedBytes() ever disagrees with compress(), or a
 * crafted sizeOne/bdi_size_* line is not the encoding its case names.
 */
bool
runSmoke()
{
    using Clock = std::chrono::steady_clock;
    const auto corpus = mixedCorpus();
    const int passes = 200;
    bool ok = true;

    const Bdi bdi;
    const std::pair<Bdi::Encoding, Line> crafted[] = {
        {Bdi::B8D1, bdiLine(Bdi::B8D1)}, {Bdi::B4D1, bdiLine(Bdi::B4D1)},
        {Bdi::B8D2, bdiLine(Bdi::B8D2)}, {Bdi::B2D1, bdiLine(Bdi::B2D1)},
        {Bdi::B4D2, bdiLine(Bdi::B4D2)}, {Bdi::B8D4, bdiLine(Bdi::B8D4)},
        {Bdi::Uncompressed, bdiLine(Bdi::Uncompressed)},
        {Bdi::Uncompressed, lateFailLine()},
    };
    for (const auto &[enc, line] : crafted) {
        const std::uint32_t got = bdi.compress(line.data()).encoding;
        if (got != enc) {
            std::fprintf(stderr, "BDI: crafted line for encoding %u "
                         "compressed as %u\n", enc, got);
            ok = false;
        }
    }

    std::printf("%-10s %14s %14s %9s\n", "codec", "encode MB/s",
                "size MB/s", "speedup");
    for (const auto kind : bvc::allCompressorKinds()) {
        const auto comp = bvc::makeCompressor(kind);

        for (const auto &line : corpus) {
            const std::size_t fast = comp->compressedBytes(line.data());
            const std::size_t full =
                comp->compress(line.data()).sizeBytes();
            if (fast != full) {
                std::fprintf(stderr,
                             "%s: size path %zu != encode path %zu\n",
                             comp->name().c_str(), fast, full);
                ok = false;
            }
        }

        std::size_t sink = 0;
        const auto t0 = Clock::now();
        for (int p = 0; p < passes; ++p)
            for (const auto &line : corpus)
                sink += comp->compress(line.data()).sizeBytes();
        const auto t1 = Clock::now();
        for (int p = 0; p < passes; ++p)
            for (const auto &line : corpus)
                sink += comp->compressedBytes(line.data());
        const auto t2 = Clock::now();
        benchmark::DoNotOptimize(sink);

        const double bytes =
            static_cast<double>(passes) * corpus.size() * kLineBytes;
        const double encodeSec =
            std::chrono::duration<double>(t1 - t0).count();
        const double sizeSec =
            std::chrono::duration<double>(t2 - t1).count();
        std::printf("%-10s %14.1f %14.1f %8.2fx\n",
                    comp->name().c_str(), bytes / encodeSec / 1e6,
                    bytes / sizeSec / 1e6, encodeSec / sizeSec);
    }
    return ok;
}

} // namespace

#define BVC_CODEC_BENCH(codec, kindEnum)                                 \
    BENCHMARK_CAPTURE(compressOne, codec##_zeros,                        \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::Zeros);                      \
    BENCHMARK_CAPTURE(compressOne, codec##_small_ints,                   \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::SmallInts);                  \
    BENCHMARK_CAPTURE(compressOne, codec##_random,                       \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::Random);                     \
    BENCHMARK_CAPTURE(sizeOne, codec##_size_small_ints,                  \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::SmallInts);                  \
    BENCHMARK_CAPTURE(sizeOne, codec##_size_random,                      \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::Random);                     \
    BENCHMARK_CAPTURE(roundTripOne, codec##_roundtrip_mixed,             \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::MixedGood)

BVC_CODEC_BENCH(bdi, Bdi);
BVC_CODEC_BENCH(fpc, Fpc);
BVC_CODEC_BENCH(cpack, Cpack);
BVC_CODEC_BENCH(zero, Zero);

BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_b8d1, bdiLine(Bdi::B8D1));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_b4d1, bdiLine(Bdi::B4D1));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_b8d2, bdiLine(Bdi::B8D2));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_b2d1, bdiLine(Bdi::B2D1));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_b4d2, bdiLine(Bdi::B4D2));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_b8d4, bdiLine(Bdi::B8D4));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_uncompressed,
                  bdiLine(Bdi::Uncompressed));
BENCHMARK_CAPTURE(sizeBdiLine, bdi_size_late_fail, lateFailLine());

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            return runSmoke() ? 0 : 1;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
