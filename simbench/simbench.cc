/**
 * @file
 * Same-host simulator benchmark. Runs one named workload for a fixed
 * host-time budget, checks every simulated result, and prints one JSON
 * result line (see README.md in this directory).
 *
 *   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--source <id>] [--record]
 *
 * Every run first runs the workload once at seed 0, untimed, and checks
 * each job against the expected table (expected.tsv, whose path is
 * compiled in). --trace 0 then repeats the workload's whole job list through SweepEngine
 * and reports end-to-end host metrics (medians over the repetitions).
 * --trace 1 adds a traced pass that rebuilds every single-core job from
 * public pieces with spans at the layer seams (traced_system.hh) and
 * reports per-layer counts and host times. --record prints the
 * expected-counter table rows of the workload at the given seed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/sweep.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "traced_system.hh"
#include "trace/workload_suite.hh"
#include "util/json.hh"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_EXPECTED
#error "SIMBENCH_EXPECTED (path of expected.tsv) is set by CMakeLists.txt"
#endif

using namespace bvc;
using simbench::LayerSpans;
using simbench::TracedSystem;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- workloads

/** One job: a single trace (System) or a mix (MultiCoreSystem). */
struct JobSpec
{
    std::string name;
    std::vector<TraceParams> traces;
};

/** A named job list with its system configuration and windows. */
struct Workload
{
    std::string name;
    SystemConfig cfg;
    bool multicore = false;
    MultiCoreConfig mc;
    std::uint64_t warmup = 0;  //!< per core
    std::uint64_t measure = 0; //!< per core
    std::vector<JobSpec> jobs;
};

const std::vector<std::string> kWorkloads = {"bv_sensitive",
                                             "uncomp_insensitive",
                                             "mc16_msi"};

/** Cache-sensitive traces mixing friendly, poor and pointer-chasing
 *  data: the traffic of the paper's Figs 8-13. */
const std::vector<std::string> kBvTraces = {
    "SPECFP/cactusADM.0", "SPECFP/milc.0",       "SPECFP/lbm.0",
    "SPECINT/omnetpp.0",  "SPECINT/gcc.2",       "Productivity/sysmark.2",
    "Productivity/winrar.0", "Client/octane.0",
};

/** Stream-heavy and small-working-set traces. */
const std::vector<std::string> kUncompTraces = {
    "SPECFP/milc.2",       "SPECFP/GemsFDTD.2", "Productivity/sysmark.4",
    "Client/octane.6",     "SPECFP/cactusADM.3", "SPECINT/gcc.3",
    "Productivity/winrar.2",
};

constexpr std::size_t kMcCores = 16;
constexpr std::size_t kMcMixes = 4;

TraceParams
suiteTrace(const WorkloadSuite &suite, const std::string &name,
           std::uint64_t seed)
{
    for (const WorkloadInfo &info : suite.all()) {
        if (info.params.name == name) {
            TraceParams params = info.params;
            params.seed += seed;
            return params;
        }
    }
    throw std::runtime_error("trace not in the suite: " + name);
}

/** The workload's job list; `seed` offsets every generator seed. */
Workload
makeWorkload(const std::string &name, const WorkloadSuite &suite,
             std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.cfg = SystemConfig::benchDefaults();
    if (name == "bv_sensitive" || name == "uncomp_insensitive") {
        const bool bv = name == "bv_sensitive";
        w.cfg.arch = bv ? LlcArch::BaseVictim : LlcArch::Uncompressed;
        w.warmup = 100'000;
        w.measure = 200'000;
        for (const std::string &trace : bv ? kBvTraces : kUncompTraces)
            w.jobs.push_back({trace, {suiteTrace(suite, trace, seed)}});
        return w;
    }
    if (name == "mc16_msi") {
        w.cfg.arch = LlcArch::BaseVictim;
        w.cfg.llcBanks = 4;
        w.multicore = true;
        w.mc.coherence = CoherenceKind::Msi;
        w.mc.sharedAddressSpace = true;
        w.warmup = 8'000;
        w.measure = 16'000;
        const auto mixes = suite.mixesN(kMcCores, kMcMixes);
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            JobSpec job;
            job.name = "mix" + std::to_string(m);
            for (const std::size_t idx : mixes[m]) {
                TraceParams params = suite.all()[idx].params;
                params.seed += seed;
                job.traces.push_back(params);
            }
            w.jobs.push_back(std::move(job));
        }
        return w;
    }
    throw std::runtime_error("unknown workload: " + name);
}

// ------------------------------------------------------------------ results

/** Ordered named counters of one job: its simulated result. */
using Fields = std::vector<std::pair<std::string, double>>;

Fields
fieldsOf(const RunResult &r)
{
    return {
        {"ipc", r.ipc},
        {"instructions", static_cast<double>(r.instructions)},
        {"cycles", static_cast<double>(r.cycles)},
        {"dram_reads", static_cast<double>(r.dramReads)},
        {"dram_writes", static_cast<double>(r.dramWrites)},
        {"dram_demand_reads", static_cast<double>(r.dramDemandReads)},
        {"llc_demand_accesses", static_cast<double>(r.llcDemandAccesses)},
        {"llc_demand_hits", static_cast<double>(r.llcDemandHits)},
        {"llc_demand_misses", static_cast<double>(r.llcDemandMisses)},
        {"llc_victim_hits", static_cast<double>(r.llcVictimHits)},
        {"llc_accesses", static_cast<double>(r.llcAccesses)},
        {"back_invalidations", static_cast<double>(r.backInvalidations)},
    };
}

Fields
fieldsOf(const MultiRunResult &r, std::uint64_t demandAccesses)
{
    Fields out;
    for (std::size_t i = 0; i < r.ipc.size(); ++i) {
        out.emplace_back("ipc." + std::to_string(i), r.ipc[i]);
        out.emplace_back("instructions." + std::to_string(i),
                         static_cast<double>(r.instructions[i]));
    }
    out.emplace_back("dram_reads", static_cast<double>(r.dramReads));
    out.emplace_back("dram_writes", static_cast<double>(r.dramWrites));
    out.emplace_back("llc_demand_accesses",
                     static_cast<double>(demandAccesses));
    out.emplace_back("llc_demand_hits",
                     static_cast<double>(r.llcDemandHits));
    out.emplace_back("llc_demand_misses",
                     static_cast<double>(r.llcDemandMisses));
    out.emplace_back("llc_victim_hits",
                     static_cast<double>(r.llcVictimHits));
    return out;
}

double
field(const Fields &fields, const std::string &name)
{
    for (const auto &[key, value] : fields)
        if (key == name)
            return value;
    throw std::runtime_error("missing result field " + name);
}

/** First field where `a` and `b` differ, or "" when identical. */
std::string
firstDifference(const Fields &expected, const Fields &got)
{
    for (const auto &[key, value] : expected) {
        const auto it = std::find_if(
            got.begin(), got.end(),
            [&key = key](const auto &kv) { return kv.first == key; });
        if (it == got.end())
            return key + ": expected " + jsonRawNum(value) + ", missing";
        if (it->second != value)
            return key + ": expected " + jsonRawNum(value) + ", got " +
                jsonRawNum(it->second);
    }
    if (got.size() != expected.size())
        return "field count: expected " + std::to_string(expected.size()) +
            ", got " + std::to_string(got.size());
    return "";
}

/** Counts read from the public stats() accessors after a run. */
struct LayerCounts
{
    std::uint64_t l1dMisses = 0, l2Misses = 0, l2Evictions = 0;
    std::uint64_t l2PrefetchFills = 0, dramPrefetchReads = 0;
    std::uint64_t dramReads = 0, dramWrites = 0, rowHits = 0,
                  rowAccesses = 0;
    std::uint64_t robStallEvents = 0;
    std::uint64_t llcAccesses = 0, llcDemandAccesses = 0,
                  llcDemandHits = 0, victimHits = 0, victimInserts = 0,
                  victimInsertFailures = 0, backInvalidations = 0;
    std::uint64_t cohReads = 0, cohWrites = 0, cohInvalidations = 0,
                  cohDowngrades = 0;
    std::uint64_t linesTouched = 0; //!< traced run only

    bool operator==(const LayerCounts &) const = default;

    void add(const LayerCounts &o)
    {
        l1dMisses += o.l1dMisses;
        l2Misses += o.l2Misses;
        l2Evictions += o.l2Evictions;
        l2PrefetchFills += o.l2PrefetchFills;
        dramPrefetchReads += o.dramPrefetchReads;
        dramReads += o.dramReads;
        dramWrites += o.dramWrites;
        rowHits += o.rowHits;
        rowAccesses += o.rowAccesses;
        robStallEvents += o.robStallEvents;
        llcAccesses += o.llcAccesses;
        llcDemandAccesses += o.llcDemandAccesses;
        llcDemandHits += o.llcDemandHits;
        victimHits += o.victimHits;
        victimInserts += o.victimInserts;
        victimInsertFailures += o.victimInsertFailures;
        backInvalidations += o.backInvalidations;
        cohReads += o.cohReads;
        cohWrites += o.cohWrites;
        cohInvalidations += o.cohInvalidations;
        cohDowngrades += o.cohDowngrades;
        linesTouched += o.linesTouched;
    }
};

std::uint64_t
misses(const StatGroup &cache)
{
    return cache.get("read_misses") + cache.get("write_misses");
}

LayerCounts
collectCounts(Llc &llc, Dram &dram, const std::vector<Hierarchy *> &hiers,
              const std::vector<OooCore *> &cores,
              const CoherenceDirectory *directory)
{
    LayerCounts c;
    for (Hierarchy *hier : hiers) {
        c.l1dMisses += misses(hier->l1d().stats());
        c.l2Misses += misses(hier->l2().stats());
        c.l2Evictions += hier->l2().stats().get("evictions");
        c.l2PrefetchFills += hier->stats().get("l2_prefetch_fills");
        c.dramPrefetchReads += hier->stats().get("dram_prefetch_reads");
    }
    for (OooCore *core : cores)
        c.robStallEvents += core->stats().get("rob_stall_events");
    const StatGroup &d = dram.stats();
    c.dramReads = d.get("reads");
    c.dramWrites = d.get("writes");
    c.rowHits = d.get("row_hits");
    c.rowAccesses = c.rowHits + d.get("row_closed") + d.get("row_conflicts");
    const StatGroup &l = llc.stats();
    c.llcAccesses = l.get("accesses");
    c.llcDemandAccesses = l.get("demand_accesses");
    c.llcDemandHits = l.get("demand_hits");
    c.victimHits = l.get("victim_hits");
    c.victimInserts = l.get("victim_inserts");
    c.victimInsertFailures = l.get("victim_insert_failures");
    c.backInvalidations = l.get("back_invalidations");
    if (directory != nullptr) {
        const StatGroup &s = directory->stats();
        c.cohReads = s.get("reads");
        c.cohWrites = s.get("writes");
        c.cohInvalidations = s.get("invalidations_sent");
        c.cohDowngrades = s.get("downgrades_sent");
    }
    return c;
}

/** Everything one job reports back from a worker thread. */
struct JobOutcome
{
    Fields fields;
    LayerCounts counts;
    double constructSeconds = 0.0;
    double runSeconds = 0.0;
    std::uint64_t simInstructions = 0; //!< warmup + measure, all cores
    Clock::time_point start;
};

/** Throws when a result breaks an invariant of every correct run. */
void
checkInvariants(const Workload &w, const Fields &f)
{
    const auto require = [](bool ok, const std::string &what) {
        if (!ok)
            throw std::runtime_error("invariant broken: " + what);
    };
    const double width = w.cfg.core.fetchWidth;
    const std::size_t cores = w.multicore ? kMcCores : 1;
    for (std::size_t i = 0; i < cores; ++i) {
        const std::string sfx =
            w.multicore ? "." + std::to_string(i) : std::string();
        require(field(f, "instructions" + sfx) ==
                    static_cast<double>(w.measure),
                "instructions retired == instructions requested");
        const double ipc = field(f, "ipc" + sfx);
        require(ipc > 0.0 && ipc <= width, "0 < IPC <= fetch width");
    }
    require(field(f, "llc_demand_hits") + field(f, "llc_demand_misses") ==
                field(f, "llc_demand_accesses"),
            "demand hits + misses == demand accesses");
    require(field(f, "llc_victim_hits") <= field(f, "llc_demand_hits"),
            "victim hits <= demand hits");
}

/** Expected counters at the default seed, keyed "workload job". */
using ExpectedTable = std::map<std::string, Fields>;

ExpectedTable
readExpected(const std::string &path)
{
    ExpectedTable table;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected table " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string workload, job, kv;
        row >> workload >> job;
        Fields fields;
        while (row >> kv) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                throw std::runtime_error("bad expected row: " + line);
            fields.emplace_back(kv.substr(0, eq),
                                std::strtod(kv.c_str() + eq + 1, nullptr));
        }
        table[workload + " " + job] = std::move(fields);
    }
    return table;
}

std::string
tableRow(const std::string &workload, const std::string &job,
         const Fields &fields)
{
    std::string row = workload + " " + job;
    for (const auto &[key, value] : fields)
        row += " " + key + "=" + jsonRawNum(value);
    return row;
}

/** Build, run and check one job (called on a sweep worker thread). */
JobOutcome
runJob(const Workload &w, const JobSpec &job, const ExpectedTable *expected)
{
    JobOutcome out;
    out.start = Clock::now();
    if (!w.multicore) {
        System sys(w.cfg, job.traces.front());
        out.constructSeconds = secondsSince(out.start);
        const Clock::time_point runStart = Clock::now();
        const RunResult r = sys.run(w.warmup, w.measure);
        out.runSeconds = secondsSince(runStart);
        out.simInstructions = sys.core().retired();
        out.fields = fieldsOf(r);
        out.counts = collectCounts(sys.llc(), sys.dram(),
                                   {&sys.hierarchy()}, {&sys.core()},
                                   nullptr);
    } else {
        MultiCoreSystem sys(w.cfg, job.traces, w.mc);
        out.constructSeconds = secondsSince(out.start);
        const Clock::time_point runStart = Clock::now();
        const MultiRunResult r = sys.run(w.warmup, w.measure);
        out.runSeconds = secondsSince(runStart);
        std::vector<Hierarchy *> hiers;
        std::vector<OooCore *> cores;
        for (std::size_t i = 0; i < sys.numCores(); ++i) {
            hiers.push_back(&sys.hierarchy(CoreId{i}));
            cores.push_back(&sys.core(CoreId{i}));
            out.simInstructions += sys.core(CoreId{i}).retired();
        }
        out.fields = fieldsOf(r, sys.llc().stats().get("demand_accesses"));
        out.counts = collectCounts(sys.llc(), sys.dram(), hiers, cores,
                                   sys.directory());
    }
    checkInvariants(w, out.fields);
    if (expected != nullptr) {
        const auto it = expected->find(w.name + " " + job.name);
        if (it == expected->end())
            throw std::runtime_error("no expected row for " + job.name);
        const std::string diff = firstDifference(it->second, out.fields);
        if (!diff.empty())
            throw std::runtime_error("counter differs from the expected "
                                     "table: " + diff);
    }
    return out;
}

// ---------------------------------------------------------------- campaigns

/** One pass over the workload's whole job list through SweepEngine. */
struct Campaign
{
    Workload workload;
    std::vector<JobOutcome> outcomes;
    std::vector<JobResult> results;
    double wallSeconds = 0.0;  //!< suite construction to last job
    double setupSeconds = 0.0; //!< suite + every system constructor
    double constructSeconds = 0.0;
    double runSeconds = 0.0;
    double queueWaitSeconds = 0.0;
    double busyRatio = 0.0;
    std::uint64_t simInstructions = 0;
    std::uint64_t attempts = 0;
};

Campaign
runCampaign(const std::string &name, std::uint64_t seed, unsigned threads,
            const ExpectedTable *expected)
{
    Campaign c;
    const Clock::time_point start = Clock::now();
    const WorkloadSuite suite(SystemConfig::benchDefaults().llcBytes);
    const double suiteSeconds = secondsSince(start);
    c.workload = makeWorkload(name, suite, seed);
    const Workload &w = c.workload;
    c.outcomes.resize(w.jobs.size());

    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        SweepJob job;
        job.config = w.cfg;
        job.trace = w.jobs[i].traces.front();
        job.label = w.name;
        job.fn = [&w, &outcomes = c.outcomes, i, expected] {
            outcomes[i] = runJob(w, w.jobs[i], expected);
            RunResult summary;
            summary.ipc = field(outcomes[i].fields, w.multicore ? "ipc.0"
                                                                : "ipc");
            return summary;
        };
        jobs.push_back(std::move(job));
    }

    SweepOptions opts;
    opts.threads = threads;
    SweepEngine engine(opts);
    const Clock::time_point engineStart = Clock::now();
    c.results = engine.run(jobs);
    c.wallSeconds = secondsSince(start);

    const SweepTelemetry &tel = engine.lastTelemetry();
    c.busyRatio = ratio(tel.jobSeconds,
                        tel.wallSeconds * static_cast<double>(tel.threads));
    c.setupSeconds = suiteSeconds;
    for (std::size_t i = 0; i < c.outcomes.size(); ++i) {
        const JobOutcome &o = c.outcomes[i];
        c.attempts += c.results[i].attempts;
        if (!c.results[i].ok)
            continue;
        c.constructSeconds += o.constructSeconds;
        c.runSeconds += o.runSeconds;
        c.simInstructions += o.simInstructions;
        c.queueWaitSeconds +=
            std::chrono::duration<double>(o.start - engineStart).count();
    }
    c.setupSeconds += c.constructSeconds;
    return c;
}

/** Pass/fail bookkeeping across every job of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void fail(const std::string &job, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "simbench: FAILED %s: %s\n", job.c_str(),
                     why.c_str());
    }
};

/**
 * Count a campaign's jobs; a job fails if it threw (invariant or
 * expected-table mismatch included) or if its result differs from the
 * same job in the run's first campaign.
 */
void
tallyCampaign(const Campaign &c, const Campaign *first, Tally &tally)
{
    for (std::size_t i = 0; i < c.results.size(); ++i) {
        ++tally.attempted;
        const std::string &job = c.workload.jobs[i].name;
        if (!c.results[i].ok) {
            tally.fail(job, c.results[i].error);
            continue;
        }
        if (first == nullptr || !first->results[i].ok)
            continue;
        const std::string diff =
            firstDifference(first->outcomes[i].fields, c.outcomes[i].fields);
        if (!diff.empty())
            tally.fail(job, "not deterministic across repetitions: " + diff);
    }
}

// ------------------------------------------------------------------ output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

void
printResult(const Tally &tally, bool ok, const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += ok && tally.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(tally.attempted);
    line += ", \"failed\": " + std::to_string(tally.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            line += ", ";
        line += jsonString(metrics[i].name) + ": {\"value\": " +
            jsonNum(metrics[i].value) +
            ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
printFingerprint(const std::string &workload, std::uint64_t seed,
                 unsigned threads, const std::string &source, bool trace)
{
    std::printf("{\"fingerprint\": {\"cpu_model\": %s, \"nproc\": %u, "
                "\"compiler\": %s, \"build_type\": %s, \"source\": %s, "
                "\"workload\": %s, \"seed\": %llu, \"worker_threads\": %u, "
                "\"trace\": %d}}\n",
                jsonString(cpuModel()).c_str(),
                std::thread::hardware_concurrency(),
                jsonString(compilerName()).c_str(),
                jsonString(SIMBENCH_BUILD_TYPE).c_str(),
                jsonString(source).c_str(), jsonString(workload).c_str(),
                static_cast<unsigned long long>(seed), threads,
                trace ? 1 : 0);
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ------------------------------------------------------------------- modes

/** --trace 0: repeat campaigns for the budget, report medians. */
std::vector<Metric>
endToEnd(const std::string &name, std::uint64_t seed, unsigned threads,
         double budget, const ExpectedTable *expected, Tally &tally)
{
    const Clock::time_point start = Clock::now();
    std::vector<Campaign> campaigns;
    do {
        campaigns.push_back(runCampaign(name, seed, threads, expected));
        tallyCampaign(campaigns.back(),
                      campaigns.size() > 1 ? &campaigns.front() : nullptr,
                      tally);
    } while (secondsSince(start) < budget);

    std::vector<double> rate, wall, setup;
    for (const Campaign &c : campaigns) {
        rate.push_back(ratio(static_cast<double>(c.simInstructions),
                             c.runSeconds) / 1e6);
        wall.push_back(c.wallSeconds);
        setup.push_back(c.setupSeconds);
    }
    // The simulated result: geomean over jobs of IPC (a mix's IPC is
    // the mean over its cores). Identical in every campaign.
    const Campaign &first = campaigns.front();
    std::vector<double> jobIpc;
    for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
        if (!first.results[i].ok)
            continue;
        std::vector<double> coreIpc;
        for (const auto &[key, value] : first.outcomes[i].fields)
            if (key == "ipc" || key.rfind("ipc.", 0) == 0)
                coreIpc.push_back(value);
        jobIpc.push_back(
            std::accumulate(coreIpc.begin(), coreIpc.end(), 0.0) /
            static_cast<double>(coreIpc.size()));
    }
    const double ipcGeomean = jobIpc.empty() ? 0.0 : geomean(jobIpc);
    const double okFrac =
        1.0 - ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted));
    std::fprintf(stderr, "simbench: %s: %zu campaigns in %.2f s\n",
                 name.c_str(), campaigns.size(), secondsSince(start));
    return {
        {"sim_minstr_per_s", median(rate), "Minstr/s"},
        {"campaign_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_ipc_geomean", ipcGeomean, "IPC"},
        {"ok_frac", okFrac, "ratio"},
    };
}

/** Per-repetition sums of the traced single-core pass. */
struct TracedPass
{
    LayerSpans spans;       //!< summed over jobs
    LayerCounts counts;     //!< summed over jobs
    double untracedRunSeconds = 0.0;
    std::uint64_t instructions = 0;
};

/**
 * Run every single-core job once untraced (System) and once traced
 * (TracedSystem), alternating which goes first, and fail any job whose
 * counters differ between the two.
 */
TracedPass
tracedPass(const Workload &w, bool tracedFirst, Tally &tally)
{
    TracedPass pass;
    for (const JobSpec &job : w.jobs) {
        ++tally.attempted;
        const TraceParams &params = job.traces.front();
        Fields plainFields, tracedFields;
        LayerCounts plainCounts, tracedCounts;
        const auto plain = [&] {
            System sys(w.cfg, params);
            const Clock::time_point t0 = Clock::now();
            plainFields = fieldsOf(sys.run(w.warmup, w.measure));
            pass.untracedRunSeconds += secondsSince(t0);
            plainCounts = collectCounts(sys.llc(), sys.dram(),
                                        {&sys.hierarchy()}, {&sys.core()},
                                        nullptr);
        };
        const auto traced = [&] {
            TracedSystem sys(w.cfg, params);
            tracedFields = fieldsOf(sys.run(w.warmup, w.measure));
            tracedCounts = collectCounts(sys.llc(), sys.dram(),
                                         {&sys.hierarchy()}, {&sys.core()},
                                         nullptr);
            pass.spans += sys.spans();
            pass.instructions += sys.core().retired();
            tracedCounts.linesTouched = sys.memory().touchedLines();
        };
        if (tracedFirst) {
            traced();
            plain();
        } else {
            plain();
            traced();
        }
        std::string diff = firstDifference(plainFields, tracedFields);
        LayerCounts withoutMemory = tracedCounts;
        withoutMemory.linesTouched = 0;
        if (diff.empty() && !(withoutMemory == plainCounts))
            diff = "component counters differ";
        if (!diff.empty())
            tally.fail(job.name, "traced run differs from System::run: " +
                                     diff);
        pass.counts.add(tracedCounts);
    }
    return pass;
}

/** --trace 1: counts, per-layer host time and the runner's split. */
std::vector<Metric>
perLayer(const std::string &name, std::uint64_t seed, unsigned threads,
         double budget, const ExpectedTable *expected, Tally &tally)
{
    const Clock::time_point start = Clock::now();
    std::vector<Campaign> campaigns;
    std::vector<TracedPass> passes;
    do {
        campaigns.push_back(runCampaign(name, seed, threads, expected));
        const Campaign &c = campaigns.back();
        tallyCampaign(c, campaigns.size() > 1 ? &campaigns.front() : nullptr,
                      tally);
        if (!c.workload.multicore)
            passes.push_back(tracedPass(c.workload, passes.size() % 2 == 1,
                                        tally));
    } while (secondsSince(start) < budget);

    // Counts are deterministic: the first repetition's stand for all.
    LayerCounts counts;
    if (!passes.empty()) {
        counts = passes.front().counts;
    } else {
        for (const JobOutcome &o : campaigns.front().outcomes)
            counts.add(o.counts);
    }
    const TracedPass empty;
    const TracedPass &p0 = passes.empty() ? empty : passes.front();
    const auto med = [&](const std::function<double(const TracedPass &)>
                             &get) {
        std::vector<double> v;
        for (const TracedPass &p : passes)
            v.push_back(get(p));
        return median(v);
    };
    const double traceS = med([](auto &p) { return p.spans.trace.seconds; });
    const double cpuS = med([](auto &p) {
        return p.spans.step.seconds - p.spans.llc.seconds;
    });
    const double llcS = med([](auto &p) {
        return p.spans.llc.seconds - p.spans.compress.seconds;
    });
    const double compressS =
        med([](auto &p) { return p.spans.compress.seconds; });
    const double memInitS =
        med([](auto &p) { return p.spans.memInit.seconds; });
    const double overheadPct = med([](auto &p) {
        return 100.0 * ratio(p.spans.wallSeconds - p.untracedRunSeconds,
                             p.untracedRunSeconds);
    });
    const double wallS = med([](auto &p) { return p.spans.wallSeconds; });
    if (!passes.empty()) {
        const double split = traceS + cpuS + llcS + compressS;
        std::fprintf(stderr,
                     "simbench: traced wall %.4f s, layer self times sum "
                     "to %.4f s (%.1f%%)\n",
                     wallS, split, 100.0 * ratio(split, wallS));
    }

    const auto medCampaign = [&](const std::function<double(const Campaign
                                                                 &)> &get) {
        std::vector<double> v;
        for (const Campaign &c : campaigns)
            v.push_back(get(c));
        return median(v);
    };
    const double llcCalls = static_cast<double>(p0.spans.llc.calls);
    const double compressCalls = static_cast<double>(p0.spans.compress.calls);
    const double records = static_cast<double>(p0.spans.records);
    std::fprintf(stderr, "simbench: %s: %zu campaigns, %zu traced passes "
                 "in %.2f s\n",
                 name.c_str(), campaigns.size(), passes.size(),
                 secondsSince(start));
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"trace.records", records, "count"},
        {"trace.self_s", traceS, "s"},
        {"trace.ns_per_record", 1e9 * ratio(traceS, records), "ns"},
        {"cpu.self_s", cpuS, "s"},
        {"cpu.ns_per_instr",
         1e9 * ratio(cpuS, static_cast<double>(p0.instructions)), "ns"},
        {"cpu.rob_stall_events", count(counts.robStallEvents), "count"},
        {"cache.l1d_misses", count(counts.l1dMisses), "count"},
        {"cache.l2_misses", count(counts.l2Misses), "count"},
        {"cache.l2_evictions", count(counts.l2Evictions), "count"},
        {"prefetch.l2_fills", count(counts.l2PrefetchFills), "count"},
        {"prefetch.dram_reads", count(counts.dramPrefetchReads), "count"},
        {"memory.lines_touched", count(counts.linesTouched), "count"},
        {"memory.init_s", memInitS, "s"},
        {"memory.dram_reads", count(counts.dramReads), "count"},
        {"memory.dram_writes", count(counts.dramWrites), "count"},
        {"memory.dram_row_hit_ratio",
         ratio(count(counts.rowHits), count(counts.rowAccesses)), "ratio"},
        {"compress.calls", compressCalls, "count"},
        {"compress.self_s", compressS, "s"},
        {"compress.ns_per_call", 1e9 * ratio(compressS, compressCalls),
         "ns"},
        {"compress.calls_per_llc_access", ratio(compressCalls, llcCalls),
         "ratio"},
        {"llc.accesses", count(counts.llcAccesses), "count"},
        {"llc.self_s", llcS, "s"},
        {"llc.ns_per_access", 1e9 * ratio(llcS, llcCalls), "ns"},
        {"llc.demand_hit_ratio",
         ratio(count(counts.llcDemandHits), count(counts.llcDemandAccesses)),
         "ratio"},
        {"llc.victim_hits", count(counts.victimHits), "count"},
        {"llc.victim_insert_fail_ratio",
         ratio(count(counts.victimInsertFailures),
               count(counts.victimInserts + counts.victimInsertFailures)),
         "ratio"},
        {"llc.back_invalidations", count(counts.backInvalidations), "count"},
        {"coherence.reads", count(counts.cohReads), "count"},
        {"coherence.writes", count(counts.cohWrites), "count"},
        {"coherence.invalidations_sent", count(counts.cohInvalidations),
         "count"},
        {"coherence.downgrades_sent", count(counts.cohDowngrades), "count"},
        {"sim.construct_s",
         medCampaign([](auto &c) { return c.constructSeconds; }), "s"},
        {"sim.run_s", medCampaign([](auto &c) { return c.runSeconds; }),
         "s"},
        {"runner.jobs", count(campaigns.front().results.size()), "count"},
        {"runner.attempts", count(campaigns.front().attempts), "count"},
        {"runner.queue_wait_s",
         medCampaign([](auto &c) { return c.queueWaitSeconds; }), "s"},
        {"runner.busy_ratio",
         medCampaign([](auto &c) { return c.busyRatio; }), "ratio"},
        {"tracing_overhead_pct", overheadPct, "%"},
    };
}

/** --record: one campaign at `seed`, printed as expected-table rows. */
int
record(const std::string &name, std::uint64_t seed, unsigned threads)
{
    const Campaign c = runCampaign(name, seed, threads, nullptr);
    for (std::size_t i = 0; i < c.results.size(); ++i) {
        if (!c.results[i].ok) {
            std::fprintf(stderr, "simbench: %s failed: %s\n",
                         c.workload.jobs[i].name.c_str(),
                         c.results[i].error.c_str());
            return 1;
        }
        std::printf("%s\n", tableRow(name, c.workload.jobs[i].name,
                                     c.outcomes[i].fields)
                                .c_str());
    }
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload "
                 "<bv_sensitive|uncomp_insensitive|mc16_msi> --seed <n> "
                 "--seconds <s> --trace <0|1> [--source <id>] "
                 "[--record]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, source = "unknown";
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false, recordMode = false;
    // At most nproc sweep workers, and never more than four.
    const unsigned threads =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record") {
            recordMode = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = parseCount(value, "--seed");
        else if (arg == "--seconds")
            seconds = static_cast<double>(parseCount(value, "--seconds"));
        else if (arg == "--trace")
            trace = parseCount(value, "--trace") != 0;
        else if (arg == "--source")
            source = value;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
        kWorkloads.end())
        usage(("unknown workload '" + workload + "'").c_str());
    if (seconds <= 0.0)
        usage("--seconds must be positive");

    try {
        if (recordMode)
            return record(workload, seed, threads);
        printFingerprint(workload, seed, threads, source, trace);
        // The expected table was recorded at the default seed. Whatever
        // --seed is, one untimed seed-0 campaign is checked against it;
        // at seed 0 the timed campaigns are checked against it too.
        const ExpectedTable table = readExpected(SIMBENCH_EXPECTED);
        const ExpectedTable *expected = seed == 0 ? &table : nullptr;
        Tally tally;
        tallyCampaign(runCampaign(workload, 0, threads, &table), nullptr,
                      tally);
        const std::vector<Metric> metrics =
            trace ? perLayer(workload, seed, threads, seconds, expected,
                             tally)
                  : endToEnd(workload, seed, threads, seconds, expected,
                             tally);
        bool ok = true;
        for (const Metric &m : metrics)
            ok = ok && std::isfinite(m.value) && m.value >= 0.0;
        printResult(tally, ok, metrics);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }
}
