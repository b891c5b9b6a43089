/**
 * @file
 * Sharded-campaign contract (src/runner/merge.hh, supervisor.hh,
 * docs/robustness.md): the engine runs exactly its deterministic
 * slice, shard journals carry and enforce their coordinates, the
 * merge step reassembles a result set identical to the unsharded run
 * and refuses every validation corpse — missing shard, duplicate
 * shard, overlapping slice, foreign signature, torn tail — with a
 * BvcError{Io} naming the shard (and byte offset where one frame is
 * at fault), and the process supervisor restarts dead/stalled workers
 * with bounded attempts before degrading to per-shard provenance.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/journal.hh"
#include "runner/merge.hh"
#include "runner/report.hh"
#include "runner/supervisor.hh"
#include "runner/sweep.hh"
#include "util/error.hh"
#include "util/fault.hh"

using namespace bvc;

namespace
{

SweepJob
fnJob(const std::string &label, std::function<RunResult()> fn)
{
    SweepJob job;
    job.label = label;
    job.trace.name = "synthetic/" + label;
    job.fn = std::move(fn);
    return job;
}

/** A six-job campaign with distinct, deterministic metrics per job. */
std::vector<SweepJob>
campaign(std::atomic<std::size_t> *executed = nullptr)
{
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 6; ++i)
        jobs.push_back(
            fnJob("job" + std::to_string(i), [i, executed] {
                if (executed != nullptr)
                    executed->fetch_add(1);
                RunResult r;
                r.instructions = 1000 + i;
                r.cycles = 2000 + 3 * i;
                r.ipc = 0.5 + 0.125 * static_cast<double>(i);
                r.dramReads = 10 * i;
                return r;
            }));
    return jobs;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "bvc_shard_" + name;
}

/** Run one shard of `jobs` with a journal; returns the results. */
std::vector<JobResult>
runShard(const std::vector<SweepJob> &jobs, std::size_t shard,
         std::size_t shards, const std::string &journalPath)
{
    SweepOptions opts;
    opts.threads = 1;
    opts.journalPath = journalPath;
    opts.tool = "unit";
    opts.shardIndex = shard;
    opts.shardCount = shards;
    SweepEngine engine(opts);
    return engine.run(jobs);
}

/** Stable JSON of `results` under a fixed telemetry, for byte diffs. */
std::string
stableJson(const std::vector<SweepJob> &jobs,
           const std::vector<JobResult> &results)
{
    SweepTelemetry telemetry;
    telemetry.jobs = jobs.size();
    telemetry.threads = 1;
    SweepReport report = buildReport("unit", telemetry, jobs, results);
    zeroTimings(report);
    return toJson(report);
}

void
expectIoErrorContaining(const std::function<void()> &fn,
                        const std::vector<std::string> &needles)
{
    try {
        fn();
        FAIL() << "expected a BvcError{Io}";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        const std::string what = e.what();
        for (const std::string &needle : needles)
            EXPECT_NE(what.find(needle), std::string::npos)
                << "missing '" << needle << "' in: " << what;
    }
}

} // namespace

// Death tests come first: gtest's fork-based "fast" style is only
// safe before worker threads exist, and every engine run joins its
// pool before returning, so later forks in this suite stay safe too.
TEST(ShardedFaultDeathTest, WorkerStartDieFiresAfterJournalOpen)
{
    const std::string path = tempPath("start_die.journal");
    const std::vector<SweepJob> jobs = campaign();

    EXPECT_EXIT(
        {
            SweepOptions opts;
            opts.threads = 1;
            opts.journalPath = path;
            opts.tool = "unit";
            opts.shardIndex = 1;
            opts.shardCount = 3;
            opts.faults = FaultPlan::parse("die:shard=1");
            SweepEngine engine(opts);
            engine.run(jobs);
        },
        ::testing::ExitedWithCode(kFaultDieExitCode), "");

    // The death fired after the journal was created: a restarted
    // worker can resume it, finding zero completed jobs.
    const JournalData data = readJournal(path);
    EXPECT_EQ(data.shardIndex, 1u);
    EXPECT_EQ(data.shardCount, 3u);
    EXPECT_TRUE(data.results.empty());
}

TEST(ShardedFaultDeathTest, WorkerStartDieSelectsOnProcessAttempt)
{
    const std::vector<SweepJob> jobs = campaign();
    const FaultPlan plan = FaultPlan::parse("die:shard=0:attempt=1");

    // Attempt 0 passes the worker-start gate and completes its slice.
    {
        SweepOptions opts;
        opts.threads = 1;
        opts.tool = "unit";
        opts.shardIndex = 0;
        opts.shardCount = 2;
        opts.workerAttempt = 0;
        opts.faults = plan;
        SweepEngine engine(opts);
        const std::vector<JobResult> results = engine.run(jobs);
        EXPECT_TRUE(results[0].ok);
    }

    // Attempt 1 dies at worker start.
    EXPECT_EXIT(
        {
            SweepOptions opts;
            opts.threads = 1;
            opts.tool = "unit";
            opts.shardIndex = 0;
            opts.shardCount = 2;
            opts.workerAttempt = 1;
            opts.faults = plan;
            SweepEngine engine(opts);
            engine.run(jobs);
        },
        ::testing::ExitedWithCode(kFaultDieExitCode), "");
}

TEST(ShardedEngine, RunsExactlyItsSlice)
{
    std::atomic<std::size_t> executed{0};
    const std::vector<SweepJob> jobs = campaign(&executed);

    SweepOptions opts;
    opts.threads = 2;
    opts.shardIndex = 1;
    opts.shardCount = 3;
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    // Shard 1/3 of 6 jobs owns exactly {1, 4}.
    EXPECT_EQ(executed.load(), 2u);
    EXPECT_EQ(engine.lastTelemetry().ownedJobs, 2u);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i % 3 == 1) {
            EXPECT_TRUE(results[i].ok) << i;
            EXPECT_EQ(results[i].result.instructions, 1000 + i);
        } else {
            EXPECT_FALSE(results[i].ok) << i;
            EXPECT_EQ(results[i].attempts, 0u) << i;
        }
    }
}

TEST(ShardedEngine, RefusesInvalidShardCoordinates)
{
    const std::vector<SweepJob> jobs = campaign();
    SweepOptions opts;
    opts.threads = 1;
    opts.shardIndex = 3;
    opts.shardCount = 3;
    SweepEngine engine(opts);
    try {
        engine.run(jobs);
        FAIL() << "out-of-range shard index was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
    }
}

TEST(ShardedEngine, ResumeRefusesWrongShardCoordinates)
{
    const std::string path = tempPath("wrong_coords.journal");
    const std::vector<SweepJob> jobs = campaign();
    (void)runShard(jobs, 0, 2, path);

    SweepOptions opts;
    opts.threads = 1;
    opts.journalPath = path;
    opts.resume = true;
    opts.tool = "unit";
    opts.shardIndex = 1;
    opts.shardCount = 2;
    SweepEngine engine(opts);
    try {
        engine.run(jobs);
        FAIL() << "foreign shard journal was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        const std::string what = e.what();
        EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
        EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
    }
}

TEST(ShardedEngine, ResumeRefusesRecordOutsideTheSlice)
{
    const std::string path = tempPath("wrong_slice.journal");
    const std::vector<SweepJob> jobs = campaign();

    // Forge a journal claiming shard 1/2 but holding job 0 — which
    // shard 0 owns. The header coordinates check passes; the per-
    // record slice check must refuse it.
    {
        JournalWriter writer(path, "unit", campaignSignature(jobs),
                             jobs.size(), 1, 2);
        JobResult r;
        r.index = 0;
        r.label = "job0";
        r.trace = "synthetic/job0";
        r.ok = true;
        r.attempts = 1;
        writer.append(r);
    }

    SweepOptions opts;
    opts.threads = 1;
    opts.journalPath = path;
    opts.resume = true;
    opts.tool = "unit";
    opts.shardIndex = 1;
    opts.shardCount = 2;
    SweepEngine engine(opts);
    expectIoErrorContaining([&] { (void)engine.run(jobs); },
                            {"byte", "does not own"});
}

TEST(ShardedJournal, HeaderCarriesShardCoordinates)
{
    const std::string path = tempPath("coords.journal");
    {
        JournalWriter writer(path, "unit", "deadbeef", 8, 2, 4);
    }
    const JournalData data = readJournal(path);
    EXPECT_EQ(data.shardIndex, 2u);
    EXPECT_EQ(data.shardCount, 4u);

    // Unsharded writers (and pre-sharding journals, which simply lack
    // the fields) read back as the whole-campaign shard 0/1.
    const std::string plain = tempPath("coords_plain.journal");
    {
        JournalWriter writer(plain, "unit", "deadbeef", 8);
    }
    const JournalData plainData = readJournal(plain);
    EXPECT_EQ(plainData.shardIndex, 0u);
    EXPECT_EQ(plainData.shardCount, 1u);
}

TEST(ShardedJournal, CheckResumeCompatibleValidatesShardCoords)
{
    JournalData data;
    data.signature = "deadbeef";
    data.jobCount = 4;
    data.shardIndex = 1;
    data.shardCount = 2;
    EXPECT_NO_THROW(
        checkResumeCompatible(data, "x.journal", "deadbeef", 4, 1, 2));
    EXPECT_THROW(
        checkResumeCompatible(data, "x.journal", "deadbeef", 4, 0, 2),
        BvcError);
    EXPECT_THROW(
        checkResumeCompatible(data, "x.journal", "deadbeef", 4, 1, 4),
        BvcError);
    // The 4-arg form means "the unsharded campaign".
    EXPECT_THROW(
        checkResumeCompatible(data, "x.journal", "deadbeef", 4),
        BvcError);
}

TEST(Merge, ShardedRunsReassembleTheUnshardedResults)
{
    std::atomic<std::size_t> executed{0};
    const std::vector<SweepJob> jobs = campaign(&executed);

    SweepOptions refOpts;
    refOpts.threads = 1;
    SweepEngine refEngine(refOpts);
    const std::vector<JobResult> reference = refEngine.run(jobs);
    executed.store(0);

    std::vector<std::string> paths;
    for (std::size_t s = 0; s < 3; ++s) {
        paths.push_back(tempPath("merge_" + std::to_string(s) +
                                 ".journal"));
        (void)runShard(jobs, s, 3, paths.back());
    }
    EXPECT_EQ(executed.load(), jobs.size());

    const MergeResult merged = mergeShardJournals(paths, jobs);
    EXPECT_EQ(merged.shardCount, 3u);
    EXPECT_EQ(merged.mergedRecords, jobs.size());
    EXPECT_EQ(merged.gapFilledJobs, 0u);
    EXPECT_EQ(stableJson(jobs, merged.results),
              stableJson(jobs, reference));
}

TEST(Merge, SingleUnshardedJournalReconstructsTheCampaign)
{
    const std::vector<SweepJob> jobs = campaign();
    const std::string path = tempPath("solo.journal");
    const std::vector<JobResult> reference =
        runShard(jobs, 0, 1, path);

    const MergeResult merged = mergeShardJournals({path}, jobs);
    EXPECT_EQ(merged.shardCount, 1u);
    EXPECT_EQ(stableJson(jobs, merged.results),
              stableJson(jobs, reference));
}

TEST(Merge, RefusesAMissingShard)
{
    const std::vector<SweepJob> jobs = campaign();
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < 3; ++s) {
        paths.push_back(tempPath("missing_" + std::to_string(s) +
                                 ".journal"));
        (void)runShard(jobs, s, 3, paths.back());
    }
    paths.erase(paths.begin() + 1); // lose shard 1

    expectIoErrorContaining(
        [&] { (void)mergeShardJournals(paths, jobs); },
        {"missing shard", "shard 1"});
}

TEST(Merge, RefusesADuplicateShard)
{
    const std::vector<SweepJob> jobs = campaign();
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < 2; ++s) {
        paths.push_back(tempPath("dup_" + std::to_string(s) +
                                 ".journal"));
        (void)runShard(jobs, s, 2, paths.back());
    }
    paths.push_back(paths[0]); // shard 0 supplied twice

    expectIoErrorContaining(
        [&] { (void)mergeShardJournals(paths, jobs); },
        {"duplicate shard", "shard 0"});
}

TEST(Merge, RefusesAnOverlappingSlice)
{
    const std::vector<SweepJob> jobs = campaign();
    const std::string good = tempPath("overlap_0.journal");
    (void)runShard(jobs, 0, 2, good);

    // Forge shard 1's journal containing job 0 — shard 0's job.
    const std::string forged = tempPath("overlap_1.journal");
    {
        JournalWriter writer(forged, "unit", campaignSignature(jobs),
                             jobs.size(), 1, 2);
        JobResult r;
        r.index = 0;
        r.label = "job0";
        r.trace = "synthetic/job0";
        r.ok = true;
        r.attempts = 1;
        writer.append(r);
    }

    expectIoErrorContaining(
        [&] { (void)mergeShardJournals({good, forged}, jobs); },
        {"overlapping slice", "byte", "owned by shard 0"});
}

TEST(Merge, RefusesAForeignCampaignSignature)
{
    const std::vector<SweepJob> jobs = campaign();
    const std::string good = tempPath("foreign_0.journal");
    (void)runShard(jobs, 0, 2, good);

    // Shard 1's journal, but from a campaign with different jobs.
    std::vector<SweepJob> other = campaign();
    other[1].label = "renamed";
    const std::string foreign = tempPath("foreign_1.journal");
    (void)runShard(other, 1, 2, foreign);

    expectIoErrorContaining(
        [&] { (void)mergeShardJournals({good, foreign}, jobs); },
        {"foreign campaign signature", "byte 0", "shard 1/2"});
}

TEST(Merge, RefusesATornTailWithoutProvenance)
{
    const std::vector<SweepJob> jobs = campaign();
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < 2; ++s) {
        paths.push_back(tempPath("torn_" + std::to_string(s) +
                                 ".journal"));
        (void)runShard(jobs, s, 2, paths.back());
    }
    // Tear shard 1's final record, as a crash mid-write would.
    const std::string content = readFile(paths[1]);
    writeFile(paths[1], content.substr(0, content.size() - 5));

    expectIoErrorContaining(
        [&] { (void)mergeShardJournals(paths, jobs); },
        {"torn record at byte", "shard 1/2"});

    // With failure provenance for shard 1 the same journals merge,
    // gap-filling the lost job with the shard's terminal error.
    ShardError provenance;
    provenance.shardIndex = 1;
    provenance.category = ErrorCategory::Timeout;
    provenance.message = "worker killed";
    provenance.attempts = 4;
    const MergeResult merged =
        mergeShardJournals(paths, jobs, {provenance});
    EXPECT_EQ(merged.gapFilledJobs, 1u);
    const JobResult &lost = merged.results[5]; // torn tail = job 5
    EXPECT_FALSE(lost.ok);
    EXPECT_EQ(lost.errorCategory, ErrorCategory::Timeout);
    EXPECT_EQ(lost.attempts, 4u);
    EXPECT_EQ(lost.label, "job5");
    EXPECT_NE(lost.error.find("[shard 1/2]"), std::string::npos);
}

TEST(Merge, GapFillsAWhollyMissingShardWithProvenance)
{
    const std::vector<SweepJob> jobs = campaign();
    const std::string path = tempPath("gapfill_0.journal");
    (void)runShard(jobs, 0, 2, path);

    ShardError provenance;
    provenance.shardIndex = 1;
    provenance.category = ErrorCategory::Injected;
    provenance.message = "worker died from an injected fault";
    provenance.attempts = 3;
    const MergeResult merged =
        mergeShardJournals({path}, jobs, {provenance});
    EXPECT_EQ(merged.mergedRecords, 3u);
    EXPECT_EQ(merged.gapFilledJobs, 3u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i % 2 == 0) {
            EXPECT_TRUE(merged.results[i].ok) << i;
        } else {
            EXPECT_FALSE(merged.results[i].ok) << i;
            EXPECT_EQ(merged.results[i].errorCategory,
                      ErrorCategory::Injected)
                << i;
        }
    }
}

TEST(Merge, RefusesAnIncompleteHealthyShard)
{
    const std::vector<SweepJob> jobs = campaign();
    const std::string full = tempPath("incomplete_0.journal");
    (void)runShard(jobs, 0, 2, full);

    // Shard 1 journaled only its first job and stopped cleanly (no
    // torn tail): without provenance that is an incomplete campaign,
    // not a mergeable one.
    const std::string partial = tempPath("incomplete_1.journal");
    {
        JournalWriter writer(partial, "unit", campaignSignature(jobs),
                             jobs.size(), 1, 2);
        JobResult r;
        r.index = 1;
        r.label = "job1";
        r.trace = "synthetic/job1";
        r.ok = true;
        r.attempts = 1;
        writer.append(r);
    }

    expectIoErrorContaining(
        [&] { (void)mergeShardJournals({full, partial}, jobs); },
        {"incomplete shard", "job 3", "no failure provenance"});
}

TEST(SupervisorExit, ClassifiesTheTaxonomy)
{
    // glibc wait-status encoding: exit code in the second byte,
    // terminating signal in the low seven bits.
    std::string message;
    EXPECT_EQ(classifyWorkerExit(0 << 8, message),
              ErrorCategory::None);
    EXPECT_TRUE(message.empty());

    EXPECT_EQ(classifyWorkerExit(kFaultDieExitCode << 8, message),
              ErrorCategory::Injected);
    EXPECT_NE(message.find("injected"), std::string::npos);

    EXPECT_EQ(classifyWorkerExit(3 << 8, message),
              ErrorCategory::Config);
    EXPECT_NE(message.find("status 3"), std::string::npos);

    EXPECT_EQ(classifyWorkerExit(SIGKILL, message),
              ErrorCategory::Unknown);
    EXPECT_NE(message.find("signal"), std::string::npos);
}

TEST(SupervisorRun, HealthyWorkersCompleteFirstTry)
{
    std::vector<WorkerSpec> specs;
    for (std::size_t s = 0; s < 3; ++s) {
        WorkerSpec spec;
        spec.shardIndex = s;
        spec.journalPath = tempPath("sup_none_" + std::to_string(s));
        spec.freshArgv = {"/bin/sh", "-c", "exit 0"};
        spec.resumeArgv = spec.freshArgv;
        specs.push_back(std::move(spec));
    }
    Supervisor supervisor((SupervisorOptions()));
    const std::vector<ShardOutcome> outcomes = supervisor.run(specs);
    ASSERT_EQ(outcomes.size(), 3u);
    for (const ShardOutcome &o : outcomes) {
        EXPECT_TRUE(o.ok);
        EXPECT_EQ(o.attempts, 1u);
        EXPECT_EQ(o.category, ErrorCategory::None);
    }
}

TEST(SupervisorRun, RestartsACrashedWorkerFromItsJournal)
{
    // First attempt dies with the injected-fault exit code; the
    // journal file exists, so the restart takes the resume argv,
    // which succeeds. This is exactly the worker lifecycle, with
    // shell stand-ins for bvsweep.
    const std::string journal = tempPath("sup_restart.journal");
    writeFile(journal, "placeholder\n");
    WorkerSpec spec;
    spec.shardIndex = 0;
    spec.journalPath = journal;
    spec.freshArgv = {"/bin/sh", "-c", "exit 86"};
    spec.resumeArgv = {"/bin/sh", "-c", "exit 0"};

    SupervisorOptions opts;
    opts.restarts = 2;
    opts.backoffBaseSeconds = 0.01;
    opts.backoffCapSeconds = 0.02;
    Supervisor supervisor(opts);
    const std::vector<ShardOutcome> outcomes = supervisor.run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(SupervisorRun, RestartsFreshWhenTheJournalHasNoHeader)
{
    // A worker killed after creating its journal but before writing
    // the header leaves an empty file. Resuming it can never succeed
    // (the resume argv fails here, as bvsweep --resume would), so the
    // restart must take the fresh argv, which succeeds the second time.
    const std::string journal = tempPath("sup_headerless.journal");
    const std::string marker = tempPath("sup_headerless.marker");
    writeFile(journal, "");
    std::remove(marker.c_str());
    WorkerSpec spec;
    spec.shardIndex = 0;
    spec.journalPath = journal;
    spec.freshArgv = {"/bin/sh", "-c",
                      "[ -e '" + marker + "' ] || { : > '" + marker +
                          "'; exit 86; }"};
    spec.resumeArgv = {"/bin/sh", "-c", "exit 1"};

    SupervisorOptions opts;
    opts.restarts = 2;
    opts.backoffBaseSeconds = 0.01;
    opts.backoffCapSeconds = 0.02;
    Supervisor supervisor(opts);
    const std::vector<ShardOutcome> outcomes = supervisor.run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(SupervisorRun, ExhaustedRestartsDegradeToProvenance)
{
    WorkerSpec spec;
    spec.shardIndex = 0;
    spec.journalPath = tempPath("sup_exhaust_missing.journal");
    spec.freshArgv = {"/bin/sh", "-c", "exit 86"};
    spec.resumeArgv = spec.freshArgv;

    SupervisorOptions opts;
    opts.restarts = 2;
    opts.backoffBaseSeconds = 0.01;
    opts.backoffCapSeconds = 0.02;
    Supervisor supervisor(opts);
    const std::vector<ShardOutcome> outcomes = supervisor.run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 3u); // 1 launch + 2 restarts
    EXPECT_EQ(outcomes[0].category, ErrorCategory::Injected);
    EXPECT_NE(outcomes[0].message.find("exit 86"), std::string::npos);
}

TEST(SupervisorRun, OverBudgetWorkerIsKilledAndRestartable)
{
    // Unlike the in-process watchdog (whose timeouts are terminal),
    // a process-level timeout reclaims the worker with SIGKILL and
    // restarts it.
    const std::string journal = tempPath("sup_budget.journal");
    writeFile(journal, "placeholder\n");
    WorkerSpec spec;
    spec.shardIndex = 0;
    spec.journalPath = journal;
    spec.freshArgv = {"/bin/sh", "-c", "sleep 30"};
    spec.resumeArgv = {"/bin/sh", "-c", "exit 0"};

    SupervisorOptions opts;
    opts.restarts = 1;
    opts.backoffBaseSeconds = 0.01;
    opts.backoffCapSeconds = 0.02;
    opts.shardTimeoutSeconds = 0.2;
    opts.pollIntervalSeconds = 0.01;
    Supervisor supervisor(opts);
    const std::vector<ShardOutcome> outcomes = supervisor.run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);

    // And when the budget keeps being blown, the terminal category
    // is Timeout, not an anonymous signal death.
    WorkerSpec stuck;
    stuck.shardIndex = 0;
    stuck.journalPath = tempPath("sup_budget2_missing.journal");
    stuck.freshArgv = {"/bin/sh", "-c", "sleep 30"};
    stuck.resumeArgv = stuck.freshArgv;
    SupervisorOptions opts2 = opts;
    opts2.restarts = 0;
    Supervisor supervisor2(opts2);
    const std::vector<ShardOutcome> bad = supervisor2.run({stuck});
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_FALSE(bad[0].ok);
    EXPECT_EQ(bad[0].category, ErrorCategory::Timeout);
    EXPECT_NE(bad[0].message.find("budget"), std::string::npos);
}

TEST(ShardFaultPlan, ParsesShardScopedRules)
{
    const FaultPlan plan = FaultPlan::parse(
        "die:shard=1;stall:shard=2:attempt=1:ms=250;die:job=3");
    ASSERT_EQ(plan.rules().size(), 3u);

    unsigned stallMs = 0;
    EXPECT_EQ(plan.workerStart(1, 0, stallMs), FaultKind::Die);
    EXPECT_EQ(plan.workerStart(1, 1, stallMs), FaultKind::None);
    EXPECT_EQ(plan.workerStart(2, 1, stallMs), FaultKind::Stall);
    EXPECT_EQ(stallMs, 250u);
    EXPECT_EQ(plan.workerStart(3, 0, stallMs), FaultKind::None);

    // Shard rules never leak into the job-scoped hooks, and vice
    // versa.
    EXPECT_EQ(plan.preAttempt(1, 0, stallMs), FaultKind::None);
    EXPECT_FALSE(plan.dieAtBoundary(1));
    EXPECT_TRUE(plan.dieAtBoundary(3));

    EXPECT_NE(plan.describe().find("die@shard1"), std::string::npos);
    EXPECT_NE(plan.describe().find("stall@shard2.attempt1(250ms)"),
              std::string::npos);
}

TEST(ShardFaultPlan, RejectsBadShardSpecs)
{
    const std::vector<std::string> bad = {
        "throw:shard=1",          // throw has no shard-scoped form
        "die:job=1:shard=2",      // a rule is job- or shard-scoped
        "die",                    // neither job= nor shard=
        "stall:shard=abc",        // not a number
    };
    for (const std::string &spec : bad) {
        try {
            (void)FaultPlan::parse(spec);
            FAIL() << "accepted bad spec: " << spec;
        } catch (const BvcError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Config) << spec;
        }
    }
    // die:shard=N:attempt=A is legal (process attempts ARE meaningful
    // for shard-scoped die), unlike die:job=N:attempt=A.
    EXPECT_NO_THROW((void)FaultPlan::parse("die:shard=0:attempt=2"));
}

TEST(ShardError, WithShardRendersInWhat)
{
    const BvcError e = BvcError(ErrorCategory::Io, "boom")
                           .withShard(2, 4);
    EXPECT_NE(std::string(e.what()).find("[shard 2/4]"),
              std::string::npos);
}
