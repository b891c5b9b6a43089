/**
 * @file
 * Experiment-harness helpers shared by the bench binaries: run a trace
 * under a configuration, compare configurations across the workload
 * suite, and aggregate (geometric means, per-category averages) the way
 * the paper reports results (Section V: "We use the geometric mean to
 * present average normalized IPC and miss rate ratios across traces").
 */

#ifndef BVC_SIM_EXPERIMENT_HH_
#define BVC_SIM_EXPERIMENT_HH_

#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/workload_suite.hh"

namespace bvc
{

/**
 * Trace-window lengths and sweep parallelism, overridable via
 * BVC_WARMUP / BVC_INSTR / BVC_THREADS. Malformed or zero values are
 * rejected with fatal() — strtoull's silent garbage-to-0 mapping once
 * turned BVC_INSTR=abc into a zero-length measurement.
 */
struct ExperimentOptions
{
    std::uint64_t warmup = 200'000;
    std::uint64_t measure = 400'000;
    /** Sweep worker threads; 0 = auto (BVC_THREADS or core count). */
    unsigned threads = 0;
    /**
     * File-backed traces only: decode .bvt blocks on a background
     * thread ahead of the core model (BVC_DECODE_AHEAD=0 forces the
     * single-threaded fallback). The record stream is identical either
     * way; this only moves decode latency off the critical path.
     */
    bool decodeAhead = true;

    /** Read overrides from the environment. */
    static ExperimentOptions fromEnv();
};

/** Normalized per-trace outcome of a config-vs-baseline comparison. */
struct TraceRatio
{
    std::string name;  //!< suite trace name, e.g. "SPECFP/cactusADM.0"
    /** Workload category of the trace (Table I), for per-category means. */
    WorkloadCategory category = WorkloadCategory::SpecFp;
    /** The trace's data compresses well (left side of the paper's plots). */
    bool compressionFriendly = false;
    double ipcRatio = 1.0;       //!< IPC(test) / IPC(base)
    double dramReadRatio = 1.0;  //!< reads(test) / reads(base)
    /**
     * Full result of the baseline run; its llcDemandMisses are the
     * bound of the hit-rate guarantee.
     */
    RunResult base;
    /** Full result of the test-configuration run. */
    RunResult test;
    double baseSeconds = 0.0;    //!< wall-clock of the baseline run
    double testSeconds = 0.0;    //!< wall-clock of the test run
};

/** Run one trace under one configuration. */
RunResult runTrace(const SystemConfig &cfg, const TraceParams &trace,
                   const ExperimentOptions &opts);

/**
 * Run baseline and test configurations over the given suite indices
 * and report per-trace normalized ratios. The (2 x indices) runs are
 * executed on the parallel sweep engine (src/runner/) with
 * opts.threads workers; results are aggregated by job index, so the
 * output is bit-identical for every thread count. Set BVC_PROGRESS=1
 * for a periodic progress line on stderr.
 */
std::vector<TraceRatio>
compareOnSuite(const SystemConfig &baseCfg, const SystemConfig &testCfg,
               const WorkloadSuite &suite,
               const std::vector<std::size_t> &indices,
               const ExperimentOptions &opts);

/** Geometric mean (the paper's aggregate); 1.0 for an empty input. */
double geomean(const std::vector<double> &values);

/** Geomean of ipcRatio over the subset matching `category`. */
double categoryIpcGeomean(const std::vector<TraceRatio> &ratios,
                          WorkloadCategory category);

/** Geomean of ipcRatio over everything. */
double overallIpcGeomean(const std::vector<TraceRatio> &ratios);

/** Geomean of dramReadRatio over everything. */
double overallDramReadGeomean(const std::vector<TraceRatio> &ratios);

/** Count of traces with ipcRatio < threshold (negative outliers). */
std::size_t countBelow(const std::vector<TraceRatio> &ratios,
                       double threshold);

/**
 * Average compressed size (as a fraction of 64B) of `samples` lines
 * drawn from a data pattern — the Section VI.A compressibility
 * characterization.
 */
double averageCompressedFraction(const DataPattern &pattern,
                                 const Compressor &comp,
                                 std::uint64_t samples);

} // namespace bvc

#endif // BVC_SIM_EXPERIMENT_HH_
