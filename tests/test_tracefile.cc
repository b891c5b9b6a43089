/**
 * @file
 * Tests for the .bvt trace-file subsystem (src/tracefile/): write/read
 * round-trips, every corruption class the reader must reject with a
 * BvcError{Io} naming a byte offset, the decode-ahead replayer's
 * equivalence with the synchronous fallback, text-trace conversion,
 * end-to-end stats equality between a generator run and a replay of
 * its exported file, and where a single-core replay stops.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/generators.hh"
#include "tracefile/bvt_reader.hh"
#include "tracefile/bvt_writer.hh"
#include "tracefile/convert.hh"
#include "tracefile/file_trace_source.hh"
#include "util/crc32.hh"
#include "util/error.hh"

namespace bvc
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "bvt_" + name;
}

TraceParams
testParams()
{
    TraceParams p;
    p.name = "unit";
    p.seed = 1234;
    p.loadFrac = 0.30;
    p.storeFrac = 0.10;
    p.streamFrac = 0.20;
    p.chaseFrac = 0.10;
    p.wsBytes = 256 * 1024;
    p.hotBytes = 16 * 1024;
    p.residentBytes = 128 * 1024;
    p.hotFrac = 0.5;
    p.residentFrac = 0.3;
    p.streamBytes = 1 << 20;
    p.chaseBytes = 128 * 1024;
    return p;
}

/** Export `count` records of the unit trace with small blocks. */
std::string
writeUnitTrace(const std::string &name, std::uint64_t count,
               std::uint32_t recordsPerBlock = 256)
{
    const std::string path = tempPath(name);
    SyntheticTrace trace(testParams());
    BvtTraceMeta meta;
    meta.name = "unit";
    meta.pattern = trace.dataPattern().kind();
    meta.patternSeed = trace.dataPattern().seed();
    meta.traceSeed = testParams().seed;
    EXPECT_EQ(writeBvt(path, trace, count, meta, recordsPerBlock),
              count);
    return path;
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open());
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

/** EXPECT a BvcError{Io} whose message names a byte offset. */
template <typename Fn>
void
expectIoErrorWithOffset(Fn &&fn)
{
    try {
        fn();
        FAIL() << "expected BvcError{Io}";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        EXPECT_NE(std::string(e.what()).find("at byte"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BvtFormat, VarintRoundTrip)
{
    const std::uint64_t values[] = {0, 1, 127, 128, 300, 0xFFFF,
                                    1ULL << 40, ~0ULL};
    for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        bvt::putVarint(buf, v);
        std::uint64_t got = 0;
        const std::uint8_t *end =
            bvt::readVarint(buf.data(), buf.data() + buf.size(), got);
        ASSERT_NE(end, nullptr);
        EXPECT_EQ(end, buf.data() + buf.size());
        EXPECT_EQ(got, v);
    }
}

TEST(BvtFormat, VarintRejectsTruncationAndOverflow)
{
    std::vector<std::uint8_t> buf;
    bvt::putVarint(buf, ~0ULL);
    std::uint64_t got = 0;
    // Truncated at every prefix length.
    for (std::size_t len = 0; len < buf.size(); ++len)
        EXPECT_EQ(bvt::readVarint(buf.data(), buf.data() + len, got),
                  nullptr);
    // 10th byte contributing more than bit 63 overflows.
    std::vector<std::uint8_t> over(9, 0x80);
    over.push_back(0x02);
    EXPECT_EQ(bvt::readVarint(over.data(), over.data() + over.size(),
                              got),
              nullptr);
}

TEST(BvtFormat, ZigzagRoundTrip)
{
    const std::int64_t values[] = {0, 1, -1, 63, -64, 1LL << 40,
                                   -(1LL << 40), INT64_MAX, INT64_MIN};
    for (const std::int64_t v : values)
        EXPECT_EQ(bvt::zigzagDecode(bvt::zigzagEncode(v)), v);
}

TEST(BvtRoundTrip, WriterReaderPreservesEveryRecord)
{
    const std::string path = tempPath("roundtrip.bvt");
    SyntheticTrace source(testParams());
    std::vector<TraceRecord> expected;
    BvtTraceMeta meta;
    meta.name = "unit";
    {
        BvtWriter writer(path, meta, 128);
        TraceRecord r;
        for (int i = 0; i < 1000; ++i) {
            ASSERT_TRUE(source.next(r));
            writer.append(r);
            expected.push_back(r);
        }
        writer.finish();
        EXPECT_EQ(writer.recordCount(), 1000u);
        EXPECT_EQ(writer.blockCount(), 8u); // ceil(1000/128)
    }

    BvtReader reader(path);
    EXPECT_EQ(reader.header().name, "unit");
    EXPECT_EQ(reader.header().recordCount, 1000u);
    std::vector<TraceRecord> block;
    std::uint64_t offset = reader.bodyOffset();
    std::size_t i = 0;
    while ((offset = reader.readBlock(offset, block)) != 0) {
        for (const TraceRecord &r : block) {
            ASSERT_LT(i, expected.size());
            EXPECT_EQ(r.pc, expected[i].pc);
            EXPECT_EQ(r.addr, expected[i].addr);
            EXPECT_EQ(r.value, expected[i].value);
            EXPECT_EQ(r.kind, expected[i].kind);
            EXPECT_EQ(r.dependsOnPrevLoad,
                      expected[i].dependsOnPrevLoad);
            ++i;
        }
    }
    EXPECT_EQ(i, expected.size());

    const BvtVerifyStats stats = verifyBvt(path);
    EXPECT_EQ(stats.records, 1000u);
    EXPECT_EQ(stats.blocks, 8u);
}

TEST(BvtRoundTrip, EmptyTraceIsValid)
{
    const std::string path = tempPath("empty.bvt");
    BvtTraceMeta meta;
    {
        BvtWriter writer(path, meta);
        writer.finish();
    }
    const BvtVerifyStats stats = verifyBvt(path);
    EXPECT_EQ(stats.records, 0u);
    EXPECT_EQ(stats.blocks, 0u);

    FileTraceOptions opts;
    opts.decodeAhead = false;
    FileTraceSource source(path, opts);
    TraceRecord r;
    EXPECT_FALSE(source.next(r));
}

TEST(BvtCorruption, MissingFile)
{
    try {
        (void)readBvtHeader(tempPath("nonexistent.bvt"));
        FAIL() << "expected BvcError{Io}";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
    }
}

TEST(BvtCorruption, TruncatedHeader)
{
    const std::string path = writeUnitTrace("trunc_header.bvt", 300);
    std::vector<std::uint8_t> data = readAll(path);
    data.resize(20); // mid-header
    writeAll(path, data);
    expectIoErrorWithOffset([&] { (void)readBvtHeader(path); });
    expectIoErrorWithOffset([&] { BvtReader reader(path); });
}

TEST(BvtCorruption, TornFinalBlock)
{
    const std::string path = writeUnitTrace("torn_tail.bvt", 1000);
    std::vector<std::uint8_t> data = readAll(path);
    data.resize(data.size() - 7); // cut the last block's payload
    writeAll(path, data);
    // Header still reads fine; the walk dies at the torn tail.
    EXPECT_EQ(readBvtHeader(path).recordCount, 1000u);
    expectIoErrorWithOffset([&] { (void)verifyBvt(path); });
}

TEST(BvtCorruption, BitFlippedPayload)
{
    const std::string path = writeUnitTrace("bitflip.bvt", 1000);
    std::vector<std::uint8_t> data = readAll(path);
    const std::uint32_t headerBytes = readBvtHeader(path).headerBytes;
    // Flip one bit in the middle of the first block's payload.
    data.at(headerBytes + kBvtBlockFrameBytes + 5) ^= 0x10;
    writeAll(path, data);
    try {
        (void)verifyBvt(path);
        FAIL() << "expected BvcError{Io}";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
            << e.what();
    }
}

TEST(BvtCorruption, VersionFromTheFuture)
{
    const std::string path = writeUnitTrace("future.bvt", 300);
    std::vector<std::uint8_t> data = readAll(path);
    data[4] = 99; // version field (little-endian u32 at offset 4)
    // A future writer would also restamp the header CRC; do the same
    // so the version check (not the CRC check) is what fires.
    const std::uint32_t headerBytes = readBvtHeader(path).headerBytes;
    std::uint32_t crc = crc32(data.data(), headerBytes - 4);
    for (unsigned i = 0; i < 4; ++i)
        data[headerBytes - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    writeAll(path, data);
    try {
        (void)readBvtHeader(path);
        FAIL() << "expected BvcError{Io}";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        EXPECT_NE(std::string(e.what()).find("unsupported version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BvtCorruption, BadMagic)
{
    const std::string path = writeUnitTrace("magic.bvt", 300);
    std::vector<std::uint8_t> data = readAll(path);
    data[0] = 'X';
    writeAll(path, data);
    expectIoErrorWithOffset([&] { (void)readBvtHeader(path); });
}

TEST(BvtCorruption, HeaderCrcMismatch)
{
    const std::string path = writeUnitTrace("header_crc.bvt", 300);
    std::vector<std::uint8_t> data = readAll(path);
    data[48] ^= 0x01; // patternSeed byte; CRC no longer matches
    writeAll(path, data);
    expectIoErrorWithOffset([&] { (void)readBvtHeader(path); });
}

TEST(FileTraceSource, MatchesGeneratorStream)
{
    const std::string path = writeUnitTrace("match.bvt", 2000);
    SyntheticTrace generator(testParams());
    FileTraceOptions opts;
    opts.decodeAhead = false;
    FileTraceSource file(path, opts);
    TraceRecord fromGen, fromFile;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(generator.next(fromGen));
        ASSERT_TRUE(file.next(fromFile));
        ASSERT_EQ(fromFile.pc, fromGen.pc);
        ASSERT_EQ(fromFile.addr, fromGen.addr);
        ASSERT_EQ(fromFile.value, fromGen.value);
        ASSERT_EQ(fromFile.kind, fromGen.kind);
        ASSERT_EQ(fromFile.dependsOnPrevLoad,
                  fromGen.dependsOnPrevLoad);
    }
    EXPECT_FALSE(file.next(fromFile)); // finite: exhausts at 2000
}

TEST(FileTraceSource, DecodeAheadIsByteIdenticalToSync)
{
    const std::string path = writeUnitTrace("ahead.bvt", 3000, 64);
    FileTraceOptions sync;
    sync.decodeAhead = false;
    FileTraceOptions ahead;
    ahead.decodeAhead = true;
    ahead.aheadBlocks = 2;
    FileTraceSource a(path, sync), b(path, ahead);
    TraceRecord ra, rb;
    for (int i = 0; i < 3000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.value, rb.value);
        ASSERT_EQ(ra.kind, rb.kind);
        ASSERT_EQ(ra.dependsOnPrevLoad, rb.dependsOnPrevLoad);
    }
    EXPECT_FALSE(a.next(ra));
    EXPECT_FALSE(b.next(rb));
}

TEST(FileTraceSource, DecodeAheadSurfacesCorruptionAsIoError)
{
    const std::string path = writeUnitTrace("ahead_corrupt.bvt",
                                            2000, 64);
    std::vector<std::uint8_t> data = readAll(path);
    data.resize(data.size() - 5); // torn tail
    writeAll(path, data);
    FileTraceOptions opts;
    opts.decodeAhead = true;
    FileTraceSource source(path, opts);
    TraceRecord r;
    expectIoErrorWithOffset([&] {
        while (source.next(r)) {
        }
    });
}

TEST(FileTraceSource, LoopReplayRestartsAtTheFirstRecord)
{
    const std::string path = writeUnitTrace("loop.bvt", 500, 64);
    FileTraceOptions opts;
    opts.decodeAhead = false;
    opts.loopReplay = true;
    FileTraceSource looped(path, opts);
    FileTraceOptions once;
    once.decodeAhead = false;
    FileTraceSource plain(path, once);
    std::vector<TraceRecord> first;
    TraceRecord r;
    while (plain.next(r))
        first.push_back(r);
    ASSERT_EQ(first.size(), 500u);
    for (int lap = 0; lap < 3; ++lap) {
        for (const TraceRecord &want : first) {
            ASSERT_TRUE(looped.next(r));
            ASSERT_EQ(r.pc, want.pc);
            ASSERT_EQ(r.addr, want.addr);
        }
    }
}

TEST(FileTraceSource, AddressOffsetShiftsPcAndMemAddresses)
{
    const std::string path = writeUnitTrace("offset.bvt", 300, 64);
    FileTraceOptions plain;
    plain.decodeAhead = false;
    FileTraceOptions shifted = plain;
    shifted.addressOffset = Addr{1} << 42;
    FileTraceSource a(path, plain), b(path, shifted);
    TraceRecord ra, rb;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(rb.pc, ra.pc + (Addr{1} << 42));
        if (ra.kind != InstrKind::NonMem)
            ASSERT_EQ(rb.addr, ra.addr + (Addr{1} << 42));
        else
            ASSERT_EQ(rb.addr, ra.addr);
    }
}

TEST(Convert, ParsesEveryLineForm)
{
    TraceRecord r;
    EXPECT_FALSE(parseTraceLine("", 1, r));
    EXPECT_FALSE(parseTraceLine("   # only a comment", 1, r));

    ASSERT_TRUE(parseTraceLine("0x1000 N", 1, r));
    EXPECT_EQ(r.pc, 0x1000u);
    EXPECT_EQ(r.kind, InstrKind::NonMem);

    ASSERT_TRUE(parseTraceLine("4096, L, 8192", 1, r));
    EXPECT_EQ(r.pc, 4096u);
    EXPECT_EQ(r.addr, 8192u);
    EXPECT_EQ(r.kind, InstrKind::Load);
    EXPECT_FALSE(r.dependsOnPrevLoad);

    ASSERT_TRUE(parseTraceLine("0x10 LD 0x20 # chase", 1, r));
    EXPECT_TRUE(r.dependsOnPrevLoad);

    ASSERT_TRUE(parseTraceLine("0x10 S 0x20 0xdead", 1, r));
    EXPECT_EQ(r.kind, InstrKind::Store);
    EXPECT_EQ(r.value, 0xdeadu);

    ASSERT_TRUE(parseTraceLine("0x10 store 0x20", 1, r));
    EXPECT_EQ(r.value, 0u); // value optional
}

TEST(Convert, RejectsMalformedLinesWithLineNumbers)
{
    const char *bad[] = {
        "0x10",             // op missing
        "0x10 X 0x20",      // unknown op
        "0x10 L",           // address missing
        "zz L 0x20",        // bad pc
        "0x10 L 0x20 7",    // trailing field on a load
        "0x10 N extra",     // trailing field on a nonmem
        "-5 N",             // negative pc
    };
    TraceRecord r;
    for (const char *line : bad) {
        try {
            (void)parseTraceLine(line, 42, r);
            FAIL() << "expected BvcError{Trace} for: " << line;
        } catch (const BvcError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Trace) << line;
            EXPECT_NE(std::string(e.what()).find("line 42"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Convert, TextFileRoundTrips)
{
    const std::string inPath = tempPath("convert_in.txt");
    {
        std::ofstream out(inPath);
        out << "# header comment\n"
            << "0x1000 N\n"
            << "0x1004 L 0x20000\n"
            << "0x1008 S 0x20040 123\n"
            << "\n"
            << "0x100c LD 0x20080\n";
    }
    const std::string outPath = tempPath("convert_out.bvt");
    BvtTraceMeta meta;
    meta.name = "converted";
    const ConvertStats stats =
        convertTextTrace(inPath, outPath, meta, 2);
    EXPECT_EQ(stats.records, 4u);

    FileTraceOptions opts;
    opts.decodeAhead = false;
    FileTraceSource source(outPath, opts);
    TraceRecord r;
    ASSERT_TRUE(source.next(r));
    EXPECT_EQ(r.kind, InstrKind::NonMem);
    ASSERT_TRUE(source.next(r));
    EXPECT_EQ(r.addr, 0x20000u);
    ASSERT_TRUE(source.next(r));
    EXPECT_EQ(r.value, 123u);
    ASSERT_TRUE(source.next(r));
    EXPECT_TRUE(r.dependsOnPrevLoad);
    EXPECT_FALSE(source.next(r));
}

TEST(TraceParamsFromBvt, CarriesHeaderMetadata)
{
    const std::string path = writeUnitTrace("params.bvt", 300);
    const TraceParams params = traceParamsFromBvt(path);
    EXPECT_EQ(params.name, "unit");
    EXPECT_EQ(params.filePath, path);
    EXPECT_EQ(params.seed, testParams().seed);
}

/**
 * The acceptance criterion end to end: a generator run and a replay
 * of that generator's exported .bvt produce IDENTICAL stats —
 * addresses, values and the DataPattern all survive the round trip.
 */
TEST(EndToEnd, FileReplayReproducesGeneratorStats)
{
    const std::string path = writeUnitTrace("e2e.bvt", 30'000, 512);

    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    ExperimentOptions opts;
    opts.warmup = 5'000;
    opts.measure = 15'000;

    const RunResult fromGen = runTrace(cfg, testParams(), opts);
    const RunResult fromFile =
        runTrace(cfg, traceParamsFromBvt(path), opts);

    EXPECT_EQ(fromFile.instructions, fromGen.instructions);
    EXPECT_EQ(fromFile.cycles, fromGen.cycles);
    EXPECT_EQ(fromFile.llcDemandHits, fromGen.llcDemandHits);
    EXPECT_EQ(fromFile.llcDemandMisses, fromGen.llcDemandMisses);
    EXPECT_EQ(fromFile.llcVictimHits, fromGen.llcVictimHits);
    EXPECT_EQ(fromFile.dramReads, fromGen.dramReads);
    EXPECT_EQ(fromFile.dramWrites, fromGen.dramWrites);

    // And the decode-ahead path changes nothing.
    ExperimentOptions syncOpts = opts;
    syncOpts.decodeAhead = false;
    const RunResult fromSync =
        runTrace(cfg, traceParamsFromBvt(path), syncOpts);
    EXPECT_EQ(fromSync.cycles, fromFile.cycles);
    EXPECT_EQ(fromSync.llcDemandMisses, fromFile.llcDemandMisses);
}

/**
 * A single-core file replay does not loop: when warmup + measure runs
 * past the file's end, the run returns with the records that were
 * left after warmup, and a warmup that already exhausts the file
 * leaves an empty measured window. Neither case loops or panics.
 */
TEST(EndToEnd, SingleCoreFileReplayStopsAtEndOfTrace)
{
    const std::string path = writeUnitTrace("short.bvt", 3'000, 256);
    const SystemConfig cfg = SystemConfig::benchDefaults();
    for (const bool decodeAhead : {false, true}) {
        TraceParams params = traceParamsFromBvt(path);
        params.decodeAhead = decodeAhead;

        System pastEnd(cfg, params);
        const RunResult r = pastEnd.run(1'000, 10'000);
        EXPECT_EQ(r.instructions, 2'000u) << "decodeAhead " << decodeAhead;
        EXPECT_EQ(r.instructions, pastEnd.core().retired() - 1'000u);

        System warmupOnly(cfg, params);
        EXPECT_EQ(warmupOnly.run(5'000, 10'000).instructions, 0u)
            << "decodeAhead " << decodeAhead;
        EXPECT_EQ(warmupOnly.core().retired(), 3'000u);
    }
}

} // namespace
} // namespace bvc
