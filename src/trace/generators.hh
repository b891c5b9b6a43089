/**
 * @file
 * Synthetic trace generation — the stand-in for the paper's SPEC CPU2006
 * / Productivity / Client trace collection (Table I), which is
 * proprietary. Each trace is a deterministic, seeded mixture of the
 * access behaviours that drive LLC studies:
 *
 *   - sequential streaming over large arrays (prefetcher-friendly),
 *   - working-set reuse with a hot subset (temporal locality; the
 *     working-set-to-LLC-size ratio is the cache-sensitivity knob),
 *   - pointer chasing with dependent loads (latency-sensitive),
 *   - a configurable store fraction (dirty lines, size-change writes),
 *
 * combined with a DataPattern that fixes the value compressibility.
 * Identical (params, seed) pairs produce identical streams on any host.
 */

#ifndef BVC_TRACE_GENERATORS_HH_
#define BVC_TRACE_GENERATORS_HH_

#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{

/** Table I workload categories. */
enum class WorkloadCategory
{
    SpecFp,       //!< SPECCPU 2006 FP (FSPEC)
    SpecInt,      //!< SPECCPU 2006 Integer (ISPEC)
    Productivity,
    Client,
};

/** Printable category name ("SPECFP", ...). */
const char *categoryName(WorkloadCategory category);

/** Full parameterization of one synthetic trace. */
struct TraceParams
{
    std::string name = "trace";  //!< label in reports ("SPECFP/cactusADM.0")
    WorkloadCategory category = WorkloadCategory::SpecFp; //!< Table I group
    std::uint64_t seed = 1;      //!< seeds the access stream and data pattern

    double loadFrac = 0.30;  //!< fraction of instructions that are loads
    double storeFrac = 0.10; //!< fraction of instructions that are stores

    /** Memory-op behaviour mixture (remainder = working-set reuse). */
    double streamFrac = 0.2; //!< sequential streaming accesses
    double chaseFrac = 0.0;  //!< dependent pointer-chase loads

    /**
     * Footprints in bytes (regions are disjoint). Working-set accesses
     * split three ways:
     *   hot      fits the upper-level caches (L1/L2 reuse)
     *   resident fits comfortably in the LLC: the recency-protected
     *            content an LLC replacement policy keeps live (and the
     *            content partner-line victimization endangers)
     *   overflow exceeds the LLC: the misses extra effective capacity
     *            (compression or a bigger cache) can convert to hits
     */
    std::uint64_t wsBytes = 1ULL << 20;         //!< overflow region size
    std::uint64_t hotBytes = 32ULL << 10;       //!< hot region size
    std::uint64_t residentBytes = 256ULL << 10; //!< resident region size
    double hotFrac = 0.55;       //!< WS accesses to the hot region
    double residentFrac = 0.25;  //!< WS accesses to the resident region
    std::uint64_t streamBytes = 4ULL << 20; //!< streaming region size
    std::uint64_t chaseBytes = 256ULL << 10; //!< must be a power of two

    /** Value behaviour (compressibility). */
    DataPatternKind pattern = DataPatternKind::MixedGood;

    /** Calibrated metadata used by the experiment harness. */
    bool cacheSensitive = true;

    /** Code footprint: distinct instruction blocks touched. */
    unsigned pcCount = 64;
    /** Concurrent sequential streams. */
    unsigned streamCursors = 4;

    /** Per-core address-space offset (multi-program isolation). */
    Addr addressOffset = 0;

    /**
     * Replay the .bvt trace file at this path instead of generating
     * synthetically (src/tracefile/). When set, the generator knobs
     * above are ignored — the file's records and header metadata
     * govern — and the path (plus the file's header CRC) is folded
     * into campaign signatures so --resume detects a swapped file.
     */
    std::string filePath;
    /** File replay only: decode blocks on a background thread. Does
     *  not change the record stream, so it is never hashed. */
    bool decodeAhead = true;
};

/** Deterministic streaming trace generator. */
class SyntheticTrace : public TraceSource
{
  public:
    explicit SyntheticTrace(const TraceParams &params);

    bool next(TraceRecord &record) override;
    std::size_t nextBlock(TraceRecord *out, std::size_t max) override;
    void reset() override;
    std::string name() const override { return params_.name; }

    const TraceParams &params() const { return params_; }

    /** Value pattern; bind to FunctionalMemory line initialization. */
    const DataPattern &dataPattern() const { return pattern_; }

  private:
    void generate(TraceRecord &record);
    void genMemOp(TraceRecord &record);
    Addr pickWorkingSetAddr();
    Addr pickStreamAddr();
    Addr pickChaseAddr();

    TraceParams params_;
    DataPattern pattern_;
    Rng rng_;

    Addr codeBase_;
    Addr wsBase_;
    Addr residentBase_;
    Addr streamBase_;
    Addr chaseBase_;

    unsigned pendingNonMem_ = 0;
    unsigned pcIdx_ = 0;
    std::vector<std::uint64_t> streamPos_;
    std::uint64_t chaseCur_ = 0;
    std::uint64_t storeSalt_ = 0;
    double memFrac_ = 0.4;

    /**
     * Spatial-burst state: working-set accesses run a few consecutive
     * blocks after each random jump (DRAM row locality + prefetcher
     * food), like real array/struct traversals.
     */
    std::uint64_t residentNext_ = 0;
    unsigned residentBurst_ = 0;
    std::uint64_t overflowNext_ = 0;
    unsigned overflowBurst_ = 0;
};

} // namespace bvc

#endif // BVC_TRACE_GENERATORS_HH_
