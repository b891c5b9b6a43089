/**
 * @file
 * bvsim — command-line driver for the Base-Victim compression
 * simulator. Runs any (LLC architecture x policy x codec x workload)
 * combination without writing code:
 *
 *   bvsim --list-traces
 *   bvsim --trace SPECINT/mcf.1 --arch base-victim --instr 400000
 *   bvsim --trace SPECFP/milc.0 --arch two-tag-naive --compare
 *   bvsim --mix 3 --arch base-victim --llc-kb 1024
 *
 * --compare also runs the uncompressed baseline and prints ratios.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runner/report.hh"
#include "runner/sweep.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "trace/workload_suite.hh"
#include "tracefile/file_trace_source.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace bvc;

namespace
{

struct Options
{
    std::string trace;
    std::string traceFile;
    bool decodeAhead = true;
    int mix = -1;
    LlcArch arch = LlcArch::BaseVictim;
    std::string repl = "nru";
    std::string victimRepl = "ecm";
    std::string compressor = "bdi";
    std::size_t llcKb = 512;
    std::size_t ways = 16;
    std::uint64_t warmup = 200'000;
    std::uint64_t instr = 400'000;
    unsigned segmentQuantum = 4;
    unsigned threads = 0; //!< sweep workers; 0 = auto
    unsigned retries = 0;
    double jobTimeout = 0.0; //!< seconds; 0 = no watchdog
    std::string jsonPath;
    bool inclusive = true;
    bool compare = false;
    bool listTraces = false;
    bool paperScale = false;
    bool noPrefetch = false;
};

[[noreturn]] void
usage()
{
    std::printf(
        "bvsim — Base-Victim compression simulator driver\n\n"
        "  --list-traces            list the 100-trace workload suite\n"
        "  --trace NAME             run one trace (see --list-traces)\n"
        "  --trace-file FILE        run a captured .bvt trace file\n"
        "                           (see bvtrace; docs/trace_format.md)\n"
        "  --no-decode-ahead        decode .bvt blocks inline instead\n"
        "                           of on a background thread\n"
        "  --mix N                  run 4-way multi-program mix N "
        "(0..19)\n"
        "  --arch A                 uncompressed | two-tag-naive |\n"
        "                           two-tag-modified | base-victim | "
        "vsc | dcc\n"
        "  --repl P                 nru | lru | srrip | drrip | random "
        "| char\n"
        "  --victim-repl P          random | ecm | lru | sizemix | "
        "camp\n"
        "  --compressor C           bdi | fpc | cpack | zero | sc2\n"
        "  --llc-kb N               LLC capacity in KB (default 512)\n"
        "  --ways N                 LLC associativity (default 16)\n"
        "  --segment-quantum N      4 or 8 byte size alignment\n"
        "  --non-inclusive          Section IV.B.3 operation "
        "(base-victim only)\n"
        "  --paper-scale            paper-sized hierarchy (2MB LLC)\n"
        "  --no-prefetch            disable all prefetchers\n"
        "  --warmup N / --instr N   window lengths per trace\n"
        "  --compare                also run the uncompressed baseline\n"
        "  --threads N              sweep worker threads (default:\n"
        "                           BVC_THREADS or hardware cores)\n"
        "  --retries N              retry failed runs up to N times\n"
        "  --job-timeout S          per-run wall-clock budget in "
        "seconds\n"
        "  --json FILE              write a bvc-sweep-v1 JSON report\n"
        "                           (single-trace runs only)\n");
    std::exit(1);
}

LlcArch
parseArch(const std::string &name)
{
    if (name == "uncompressed")
        return LlcArch::Uncompressed;
    if (name == "two-tag-naive")
        return LlcArch::TwoTagNaive;
    if (name == "two-tag-modified")
        return LlcArch::TwoTagModified;
    if (name == "base-victim")
        return LlcArch::BaseVictim;
    if (name == "vsc")
        return LlcArch::Vsc;
    if (name == "dcc")
        return LlcArch::Dcc;
    fatal("unknown --arch: " + name);
}

ReplacementKind
parseRepl(const std::string &name)
{
    if (name == "lru") return ReplacementKind::Lru;
    if (name == "nru") return ReplacementKind::Nru;
    if (name == "srrip") return ReplacementKind::Srrip;
    if (name == "drrip") return ReplacementKind::Drrip;
    if (name == "random") return ReplacementKind::Random;
    if (name == "char") return ReplacementKind::Char;
    fatal("unknown --repl: " + name);
}

VictimReplKind
parseVictimRepl(const std::string &name)
{
    if (name == "random") return VictimReplKind::Random;
    if (name == "ecm") return VictimReplKind::Ecm;
    if (name == "lru") return VictimReplKind::Lru;
    if (name == "sizemix") return VictimReplKind::SizeMix;
    if (name == "camp") return VictimReplKind::Camp;
    fatal("unknown --victim-repl: " + name);
}

CompressorKind
parseCompressor(const std::string &name)
{
    if (name == "bdi") return CompressorKind::Bdi;
    if (name == "fpc") return CompressorKind::Fpc;
    if (name == "cpack") return CompressorKind::Cpack;
    if (name == "zero") return CompressorKind::Zero;
    if (name == "sc2") return CompressorKind::Sc2;
    fatal("unknown --compressor: " + name);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-traces")
            opts.listTraces = true;
        else if (arg == "--trace")
            opts.trace = next(i);
        else if (arg == "--trace-file")
            opts.traceFile = next(i);
        else if (arg == "--no-decode-ahead")
            opts.decodeAhead = false;
        else if (arg == "--mix")
            opts.mix = std::atoi(next(i));
        else if (arg == "--arch")
            opts.arch = parseArch(next(i));
        else if (arg == "--repl")
            opts.repl = next(i);
        else if (arg == "--victim-repl")
            opts.victimRepl = next(i);
        else if (arg == "--compressor")
            opts.compressor = next(i);
        else if (arg == "--llc-kb")
            opts.llcKb = parsePositiveUint("--llc-kb", next(i));
        else if (arg == "--ways")
            opts.ways = parsePositiveUint("--ways", next(i));
        else if (arg == "--segment-quantum")
            opts.segmentQuantum =
                static_cast<unsigned>(std::atoi(next(i)));
        else if (arg == "--non-inclusive")
            opts.inclusive = false;
        else if (arg == "--paper-scale")
            opts.paperScale = true;
        else if (arg == "--no-prefetch")
            opts.noPrefetch = true;
        else if (arg == "--warmup")
            opts.warmup = parsePositiveUint("--warmup", next(i));
        else if (arg == "--instr")
            opts.instr = parsePositiveUint("--instr", next(i));
        else if (arg == "--compare")
            opts.compare = true;
        else if (arg == "--threads")
            opts.threads = static_cast<unsigned>(
                parsePositiveUint("--threads", next(i)));
        else if (arg == "--retries")
            opts.retries = static_cast<unsigned>(
                parsePositiveUint("--retries", next(i)));
        else if (arg == "--job-timeout")
            opts.jobTimeout =
                parsePositiveDouble("--job-timeout", next(i));
        else if (arg == "--json")
            opts.jsonPath = next(i);
        else
            usage();
    }
    return opts;
}

void
printRun(const char *label, const RunResult &r)
{
    std::printf("%-14s ipc %.4f  llc-hits %llu (victim %llu)  "
                "llc-misses %llu  dram R/W %llu/%llu\n",
                label, r.ipc,
                static_cast<unsigned long long>(r.llcDemandHits),
                static_cast<unsigned long long>(r.llcVictimHits),
                static_cast<unsigned long long>(r.llcDemandMisses),
                static_cast<unsigned long long>(r.dramReads),
                static_cast<unsigned long long>(r.dramWrites));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const WorkloadSuite suite(opts.paperScale ? 2048 * 1024
                                              : 512 * 1024);

    if (!opts.trace.empty() && !opts.traceFile.empty())
        fatal("--trace and --trace-file are mutually exclusive");

    if (opts.listTraces ||
        (opts.trace.empty() && opts.traceFile.empty() &&
         opts.mix < 0)) {
        Table table({"name", "category", "sensitive", "friendly"});
        for (const WorkloadInfo &info : suite.all())
            table.addRow({info.params.name,
                          categoryName(info.params.category),
                          info.cacheSensitive ? "yes" : "no",
                          info.compressionFriendly ? "yes" : "no"});
        std::printf("%s", table.render().c_str());
        return 0;
    }

    SystemConfig cfg = opts.paperScale ? SystemConfig::paperDefaults()
                                       : SystemConfig::benchDefaults();
    cfg.arch = opts.arch;
    cfg.llcBytes = opts.llcKb * 1024;
    cfg.llcWays = opts.ways;
    cfg.llcRepl = parseRepl(opts.repl);
    cfg.victimRepl = parseVictimRepl(opts.victimRepl);
    cfg.compressor = parseCompressor(opts.compressor);
    cfg.segmentQuantum = opts.segmentQuantum;
    cfg.llcInclusive = opts.inclusive;
    cfg.hier.prefetch = !opts.noPrefetch;

    SystemConfig baseCfg = cfg;
    baseCfg.arch = LlcArch::Uncompressed;
    baseCfg.llcInclusive = true;

    const auto wallStart = std::chrono::steady_clock::now();
    auto printFooter = [&wallStart](std::size_t jobs) {
        const double wall = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart).count();
        std::printf("total wall-clock %.2f s  (%zu jobs, %.2f "
                    "jobs/s)\n",
                    wall, jobs,
                    wall > 0.0 ? static_cast<double>(jobs) / wall
                               : 0.0);
    };

    if (opts.mix >= 0) {
        const auto mixes = suite.mixes(20);
        if (opts.mix >= static_cast<int>(mixes.size()))
            fatal("--mix out of range (0..19)");
        const auto &mix = mixes[static_cast<std::size_t>(opts.mix)];
        std::vector<TraceParams> traces;
        for (const std::size_t idx : mix)
            traces.push_back(suite.all()[idx].params);
        std::printf("mix %d:\n", opts.mix);
        for (const auto &t : traces)
            std::printf("  %s\n", t.name.c_str());

        MultiCoreSystem system(cfg, traces);
        const MultiRunResult r = system.run(opts.warmup, opts.instr);
        for (std::size_t t = 0; t < traces.size(); ++t)
            std::printf("thread %zu: ipc %.4f\n", t, r.ipc[t]);
        if (opts.compare) {
            MultiCoreSystem baseSystem(baseCfg, traces);
            const MultiRunResult rb =
                baseSystem.run(opts.warmup, opts.instr);
            std::printf("weighted speedup vs uncompressed: %.4f\n",
                        r.weightedSpeedup(rb));
        }
        if (!opts.jsonPath.empty())
            warn("--json is only supported for single-trace runs");
        printFooter(opts.compare ? 2 : 1);
        return 0;
    }

    WorkloadInfo fileInfo;
    const WorkloadInfo *info = nullptr;
    if (!opts.traceFile.empty()) {
        // File-backed run: name/category/pattern come from the .bvt
        // header; the suite is bypassed entirely.
        try {
            fileInfo.params = traceParamsFromBvt(opts.traceFile);
        } catch (const BvcError &e) {
            fatal(e.what());
        }
        info = &fileInfo;
    } else {
        for (const WorkloadInfo &candidate : suite.all())
            if (candidate.params.name == opts.trace)
                info = &candidate;
        if (info == nullptr)
            fatal("unknown trace '" + opts.trace +
                  "' (use --list-traces)");
    }

    std::printf("trace %s  arch %s  llc %zuKB %zu-way\n",
                info->params.name.c_str(), llcArchName(cfg.arch),
                opts.llcKb, opts.ways);

    // Run through the sweep engine: with --compare the test and
    // baseline runs execute concurrently (given --threads >= 2), and
    // the JSON report falls out of the same path bvsweep uses.
    ExperimentOptions runOpts = ExperimentOptions::fromEnv();
    runOpts.warmup = opts.warmup;
    runOpts.measure = opts.instr;
    runOpts.threads = opts.threads;
    // --no-decode-ahead forces the synchronous reader; otherwise the
    // BVC_DECODE_AHEAD environment default (on) applies.
    if (!opts.decodeAhead)
        runOpts.decodeAhead = false;
    std::vector<SweepJob> jobs;
    jobs.push_back({cfg, info->params, runOpts,
                    llcArchName(cfg.arch), {}});
    if (opts.compare)
        jobs.push_back({baseCfg, info->params, runOpts,
                        "uncompressed", {}});

    SweepOptions sweepOpts;
    sweepOpts.threads = opts.threads;
    sweepOpts.retries = opts.retries;
    sweepOpts.jobTimeoutSeconds = opts.jobTimeout;
    sweepOpts.tool = "bvsim";
    SweepEngine engine(sweepOpts);
    std::vector<JobResult> results;
    try {
        results = engine.run(jobs);
    } catch (const BvcError &e) {
        fatal(e.what());
    }
    failOnJobErrors(results);

    const RunResult &r = results[0].result;
    printRun(llcArchName(cfg.arch), r);

    SweepReport report = buildReport("bvsim", engine.lastTelemetry(),
                                     jobs, results);
    if (opts.compare) {
        const RunResult &rb = results[1].result;
        printRun("baseline", rb);
        std::printf("ipc ratio %.4f  dram-read ratio %.4f\n",
                    r.ipc / rb.ipc,
                    rb.dramReads
                        ? static_cast<double>(r.dramReads) / rb.dramReads
                        : 1.0);
        report.records[0].hasRatios = true;
        report.records[0].ipcRatio = r.ipc / rb.ipc;
        report.records[0].dramReadRatio = rb.dramReads
            ? static_cast<double>(r.dramReads) /
                  static_cast<double>(rb.dramReads)
            : 1.0;
    }
    if (!opts.jsonPath.empty()) {
        writeFile(opts.jsonPath, toJson(report));
        std::fprintf(stderr, "wrote %s\n", opts.jsonPath.c_str());
    }
    printFooter(jobs.size());
    return 0;
}
