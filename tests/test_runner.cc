/**
 * @file
 * The parallel sweep engine's contract (src/runner/): every submitted
 * job runs exactly once, results come back in submission order no
 * matter how workers interleave, parallel compareOnSuite is
 * bit-identical to the serial path, a throwing job surfaces its error
 * without deadlocking the pool, the JSON report round-trips, and the
 * hardened option parsing rejects garbage instead of silently running
 * zero-length windows.
 */

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "runner/report.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "trace/workload_suite.hh"
#include "util/error.hh"
#include "util/json.hh"

using namespace bvc;

namespace
{

/** Scoped setenv/unsetenv so env-dependent tests can't leak state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }

  private:
    const char *name_;
};

SweepJob
fnJob(const std::string &label, std::function<RunResult()> fn)
{
    SweepJob job;
    job.label = label;
    job.trace.name = "synthetic/" + label;
    job.fn = std::move(fn);
    return job;
}

} // namespace

// Death tests run first, before any worker threads have been spawned,
// so gtest's fork-based "fast" style is safe.
TEST(ExperimentOptionsDeath, RejectsMalformedEnv)
{
    ScopedEnv env("BVC_INSTR", "abc");
    EXPECT_EXIT(ExperimentOptions::fromEnv(),
                ::testing::ExitedWithCode(1), "BVC_INSTR");
}

TEST(ExperimentOptionsDeath, RejectsZeroEnv)
{
    ScopedEnv env("BVC_WARMUP", "0");
    EXPECT_EXIT(ExperimentOptions::fromEnv(),
                ::testing::ExitedWithCode(1), "BVC_WARMUP");
}

TEST(ExperimentOptionsDeath, RejectsNegativeValues)
{
    // strtoull would silently wrap "-3" to a huge unsigned value.
    ScopedEnv env("BVC_THREADS", "-3");
    EXPECT_EXIT(ExperimentOptions::fromEnv(),
                ::testing::ExitedWithCode(1), "BVC_THREADS");
}

TEST(ExperimentOptionsDeath, RejectsTrailingJunk)
{
    ScopedEnv env("BVC_INSTR", "1000x");
    EXPECT_EXIT(ExperimentOptions::fromEnv(),
                ::testing::ExitedWithCode(1), "BVC_INSTR");
}

TEST(ExperimentOptions, ReadsValidEnv)
{
    ScopedEnv warmup("BVC_WARMUP", "1234");
    ScopedEnv instr("BVC_INSTR", "5678");
    ScopedEnv threads("BVC_THREADS", "3");
    const ExperimentOptions opts = ExperimentOptions::fromEnv();
    EXPECT_EQ(opts.warmup, 1234u);
    EXPECT_EQ(opts.measure, 5678u);
    EXPECT_EQ(opts.threads, 3u);
}

TEST(ResolveThreadCount, RequestWinsThenEnvThenHardware)
{
    EXPECT_EQ(resolveThreadCount(5), 5u);
    {
        ScopedEnv env("BVC_THREADS", "7");
        EXPECT_EQ(resolveThreadCount(0), 7u);
        EXPECT_EQ(resolveThreadCount(2), 2u);
    }
    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    constexpr std::size_t kTasks = 200;
    std::vector<std::atomic<int>> runs(kTasks);
    std::atomic<std::size_t> total{0};
    {
        ThreadPool pool(4);
        for (std::size_t i = 0; i < kTasks; ++i)
            pool.submit([&runs, &total, i] {
                runs[i].fetch_add(1);
                total.fetch_add(1);
            });
        pool.wait();
        EXPECT_EQ(total.load(), kTasks);
    }
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<std::size_t> total{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&total] { total.fetch_add(1); });
        // No wait(): the destructor must finish the queued work.
    }
    EXPECT_EQ(total.load(), 50u);
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    constexpr std::size_t kJobs = 64;
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < kJobs; ++i)
        jobs.push_back(fnJob("job" + std::to_string(i), [i] {
            RunResult r;
            r.instructions = i;
            r.ipc = 1.0 + static_cast<double>(i);
            return r;
        }));

    SweepOptions opts;
    opts.threads = 8;
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].label, "job" + std::to_string(i));
        EXPECT_TRUE(results[i].ok);
        EXPECT_EQ(results[i].result.instructions, i);
    }
    const SweepTelemetry &t = engine.lastTelemetry();
    EXPECT_EQ(t.jobs, kJobs);
    EXPECT_EQ(t.threads, 8u);
    EXPECT_GT(t.wallSeconds, 0.0);
}

TEST(SweepEngine, ThrowingJobIsCapturedWithoutDeadlock)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("good0", [] { return RunResult{}; }));
    jobs.push_back(fnJob("bad", []() -> RunResult {
        throw std::runtime_error("simulated job failure");
    }));
    jobs.push_back(fnJob("good1", [] { return RunResult{}; }));

    SweepOptions opts;
    opts.threads = 3;
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("simulated job failure"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
}

TEST(SweepEngineDeath, FailOnJobErrorsReportsConfigAndError)
{
    std::vector<JobResult> results(1);
    results[0].index = 0;
    results[0].label = "base-victim";
    results[0].trace = "SPECFP/milc.0";
    results[0].ok = false;
    results[0].error = "simulated job failure";
    EXPECT_EXIT(failOnJobErrors(results),
                ::testing::ExitedWithCode(1),
                "base-victim.*SPECFP/milc.0.*simulated job failure");
}

TEST(SweepEngine, EmptyJobListIsANoOp)
{
    SweepEngine engine;
    EXPECT_TRUE(engine.run({}).empty());
    EXPECT_EQ(engine.lastTelemetry().jobs, 0u);
}

/** The determinism guarantee: parallel == serial, bit for bit. */
TEST(SweepEngine, ParallelCompareOnSuiteMatchesSerial)
{
    const WorkloadSuite suite(512 * 1024);
    std::vector<std::size_t> indices = suite.sensitiveIndices();
    ASSERT_GE(indices.size(), 3u);
    indices.resize(3);

    SystemConfig base = SystemConfig::benchDefaults();
    SystemConfig test = base;
    test.arch = LlcArch::BaseVictim;

    ExperimentOptions opts;
    opts.warmup = 2'000;
    opts.measure = 6'000;

    opts.threads = 1;
    const auto serial =
        compareOnSuite(base, test, suite, indices, opts);
    opts.threads = 4;
    const auto parallel =
        compareOnSuite(base, test, suite, indices, opts);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        // Exact equality on purpose: each job is a self-contained
        // simulation, so thread count must not perturb a single bit.
        EXPECT_EQ(serial[i].ipcRatio, parallel[i].ipcRatio);
        EXPECT_EQ(serial[i].dramReadRatio, parallel[i].dramReadRatio);
        EXPECT_EQ(serial[i].base.cycles, parallel[i].base.cycles);
        EXPECT_EQ(serial[i].test.cycles, parallel[i].test.cycles);
        EXPECT_EQ(serial[i].base.dramReads, parallel[i].base.dramReads);
        EXPECT_EQ(serial[i].test.llcDemandMisses,
                  parallel[i].test.llcDemandMisses);
        EXPECT_GT(serial[i].baseSeconds, 0.0);
        EXPECT_GT(parallel[i].testSeconds, 0.0);
    }
}

TEST(Report, JsonRoundTripsKeyFields)
{
    SweepReport report;
    report.tool = "test";
    report.threads = 8;
    report.wallSeconds = 12.25;
    report.jobsPerSecond = 3.5;

    RunRecord a;
    a.index = 0;
    a.arch = "base-victim";
    a.trace = "SPECFP/milc.0";
    a.category = "SPECFP";
    a.bucket = "compression-friendly";
    a.wallSeconds = 0.125;
    a.warmup = 200'000;
    a.measure = 400'000;
    a.result.ipc = 1.2345678901234567;
    a.result.instructions = 400'000;
    a.result.cycles = 324'001;
    a.result.dramReads = 1001;
    a.result.dramWrites = 77;
    a.result.llcDemandMisses = 1234;
    a.result.llcVictimHits = 55;
    a.result.backInvalidations = 3;
    a.hasRatios = true;
    a.ipcRatio = 1.0731;
    a.dramReadRatio = 0.84;

    RunRecord b;
    b.index = 1;
    b.arch = "vsc";
    b.trace = "CLIENT/tpch.2";
    b.category = "Client";
    b.ok = false;
    b.error = "weird \"quoted\" error\nwith a newline \\ backslash";

    report.records = {a, b};

    const SweepReport parsed = parseJsonReport(toJson(report));
    EXPECT_EQ(parsed.schema, "bvc-sweep-v1");
    EXPECT_EQ(parsed.tool, "test");
    EXPECT_EQ(parsed.threads, 8u);
    EXPECT_EQ(parsed.wallSeconds, 12.25);
    EXPECT_EQ(parsed.jobsPerSecond, 3.5);
    ASSERT_EQ(parsed.records.size(), 2u);

    const RunRecord &pa = parsed.records[0];
    EXPECT_EQ(pa.arch, "base-victim");
    EXPECT_EQ(pa.trace, "SPECFP/milc.0");
    EXPECT_EQ(pa.category, "SPECFP");
    EXPECT_EQ(pa.bucket, "compression-friendly");
    EXPECT_TRUE(pa.ok);
    EXPECT_EQ(pa.wallSeconds, 0.125);
    EXPECT_EQ(pa.warmup, 200'000u);
    EXPECT_EQ(pa.measure, 400'000u);
    EXPECT_EQ(pa.result.ipc, a.result.ipc); // %.17g is bit-exact
    EXPECT_EQ(pa.result.instructions, 400'000u);
    EXPECT_EQ(pa.result.cycles, 324'001u);
    EXPECT_EQ(pa.result.dramReads, 1001u);
    EXPECT_EQ(pa.result.llcVictimHits, 55u);
    EXPECT_TRUE(pa.hasRatios);
    EXPECT_EQ(pa.ipcRatio, 1.0731);
    EXPECT_EQ(pa.dramReadRatio, 0.84);

    const RunRecord &pb = parsed.records[1];
    EXPECT_FALSE(pb.ok);
    EXPECT_EQ(pb.error, b.error);
}

TEST(Report, JsonEncodesNonFiniteMetricsAsNull)
{
    SweepReport report;
    report.tool = "test";
    RunRecord rec;
    rec.result.ipc = std::numeric_limits<double>::quiet_NaN();
    rec.hasRatios = true;
    rec.ipcRatio = std::numeric_limits<double>::infinity();
    rec.dramReadRatio = 0.5;
    report.records = {rec};

    // Bare nan/inf tokens are not valid JSON; the writer must emit
    // null and the reader must accept it back as NaN.
    const std::string json = toJson(report);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_NE(json.find("null"), std::string::npos);

    const SweepReport parsed = parseJsonReport(json);
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_TRUE(std::isnan(parsed.records[0].result.ipc));
    EXPECT_TRUE(std::isnan(parsed.records[0].ipcRatio));
    EXPECT_EQ(parsed.records[0].dramReadRatio, 0.5);
}

TEST(Report, JsonPreservesCountersAbove53Bits)
{
    SweepReport report;
    report.tool = "test";
    RunRecord rec;
    // (2^53)+1 is the first integer a double cannot represent; a
    // parser that routes counters through double corrupts all three.
    rec.result.instructions = (std::uint64_t{1} << 53) + 1;
    rec.result.cycles = std::numeric_limits<std::uint64_t>::max();
    rec.result.dramReads = (std::uint64_t{1} << 63) + 12345;
    report.records = {rec};

    const SweepReport parsed = parseJsonReport(toJson(report));
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].result.instructions,
              (std::uint64_t{1} << 53) + 1);
    EXPECT_EQ(parsed.records[0].result.cycles,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parsed.records[0].result.dramReads,
              (std::uint64_t{1} << 63) + 12345);
}

TEST(Report, BuildReportCarriesJobIdentity)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("base-victim", [] {
        RunResult r;
        r.ipc = 2.0;
        return r;
    }));
    jobs[0].trace.category = WorkloadCategory::Productivity;
    jobs[0].opts.warmup = 11;
    jobs[0].opts.measure = 22;

    SweepEngine engine;
    const auto results = engine.run(jobs);
    const SweepReport report =
        buildReport("unit", engine.lastTelemetry(), jobs, results);

    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_EQ(report.tool, "unit");
    EXPECT_EQ(report.records[0].arch, "base-victim");
    EXPECT_EQ(report.records[0].category, "Productivity");
    EXPECT_EQ(report.records[0].warmup, 11u);
    EXPECT_EQ(report.records[0].measure, 22u);
    EXPECT_EQ(report.records[0].result.ipc, 2.0);
    EXPECT_GT(report.records[0].wallSeconds, 0.0);
}

TEST(Report, CsvHasHeaderAndOneRowPerRecord)
{
    SweepReport report;
    RunRecord rec;
    rec.arch = "dcc";
    rec.trace = "SPECINT/mcf.1";
    rec.error = "contains, comma and \"quote\"";
    report.records = {rec, rec};

    const std::string csv = toCsv(report);
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u); // header + 2 records
    EXPECT_NE(csv.find("index,arch,trace,category,bucket,ok,error"),
              std::string::npos);
    EXPECT_NE(csv.find("\"contains, comma and \"\"quote\"\"\""),
              std::string::npos);
}

TEST(Report, ErrorCategoryAndAttemptsRoundTrip)
{
    SweepReport report;
    report.tool = "test";
    RunRecord rec;
    rec.ok = false;
    rec.error = "job exceeded its wall-clock budget";
    rec.errorCategory = ErrorCategory::Timeout;
    rec.attempts = 3;
    report.records = {rec};

    const std::string json = toJson(report);
    EXPECT_NE(json.find("\"error_category\": \"timeout\""),
              std::string::npos);
    const SweepReport parsed = parseJsonReport(json);
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].errorCategory, ErrorCategory::Timeout);
    EXPECT_EQ(parsed.records[0].attempts, 3u);
}

TEST(Report, TruncatedJsonIsRejectedWithByteOffset)
{
    SweepReport report;
    report.tool = "test";
    report.records = {RunRecord{}};
    const std::string json = toJson(report);

    try {
        (void)parseJsonReport(json.substr(0, json.size() / 2));
        FAIL() << "truncated JSON was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
}

TEST(Report, TrailingGarbageIsRejected)
{
    SweepReport report;
    report.tool = "test";
    const std::string json = toJson(report);
    EXPECT_THROW(parseJsonReport(json + " {\"extra\": 1}"), BvcError);
}

// JsonReader keeps a reference to its text: building one from a
// temporary, which would dangle, must not compile.
static_assert(std::is_constructible_v<JsonReader, const std::string &>);
static_assert(!std::is_constructible_v<JsonReader, std::string>);
static_assert(!std::is_constructible_v<JsonReader, const char *>);

TEST(Json, BadUnicodeEscapeIsRejected)
{
    // strtoul alone would decode "\uZZZZ" to 0 and embed a NUL; every
    // one of the four characters must be a hex digit.
    for (const std::string bad :
         {"\"\\uZZZZ\"", "\"\\u12G4\"", "\"\\u +12\"", "\"\\u-123\"",
          "\"\\u123\""}) {
        JsonReader reader(bad);
        EXPECT_THROW(reader.parseString(), BvcError) << bad;
    }

    const std::string goodText = "\"\\u0041\\u0009\"";
    JsonReader good(goodText);
    EXPECT_EQ(good.parseString(), "A\t");
}

TEST(Report, WrongSchemaIsRejected)
{
    SweepReport report;
    report.tool = "test";
    std::string json = toJson(report);
    const std::size_t pos = json.find("bvc-sweep-v1");
    ASSERT_NE(pos, std::string::npos);
    json.replace(pos, 12, "bvc-sweep-v9");
    try {
        (void)parseJsonReport(json);
        FAIL() << "wrong schema was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        EXPECT_NE(std::string(e.what()).find("bvc-sweep-v9"),
                  std::string::npos);
    }
}

TEST(Report, ZeroTimingsNormalizesEveryWallClockField)
{
    SweepReport report;
    report.wallSeconds = 12.5;
    report.jobsPerSecond = 3.5;
    RunRecord rec;
    rec.wallSeconds = 0.25;
    report.records = {rec, rec};

    zeroTimings(report);
    EXPECT_EQ(report.wallSeconds, 0.0);
    EXPECT_EQ(report.jobsPerSecond, 0.0);
    for (const RunRecord &r : report.records)
        EXPECT_EQ(r.wallSeconds, 0.0);
}

TEST(Report, WriteFileAtomicReplacesContentWithoutDroppings)
{
    const std::string path =
        ::testing::TempDir() + "bvc_atomic_write.txt";
    writeFileAtomic(path, "first");
    EXPECT_EQ(readFile(path), "first");
    writeFileAtomic(path, "second");
    EXPECT_EQ(readFile(path), "second");
    // The staging file must not survive a successful rename.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
}
