/**
 * @file
 * PC-indexed stride prefetcher (classic reference-prediction-table
 * design), used at the L1 data cache.
 */

#ifndef BVC_PREFETCH_STRIDE_PREFETCHER_HH_
#define BVC_PREFETCH_STRIDE_PREFETCHER_HH_

#include "prefetch/prefetcher.hh"

namespace bvc
{

/** Reference prediction table keyed by load/store PC. */
class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(
        std::size_t entries = 256, //!< table size (direct-mapped by PC)
        unsigned degree = 2);      //!< prefetches per trained access

    /** Train the PC's entry and append strided blocks once confident. */
    void observe(Addr pc, Addr blk, bool miss,
                 std::vector<Addr> &out) override;

  private:
    struct Entry
    {
        Addr pcTag = 0;          //!< PC owning the entry
        Addr lastBlk = 0;        //!< block of the PC's last access
        std::int64_t stride = 0; //!< last observed stride, bytes
        unsigned confidence = 0; //!< saturating repeat count
        bool valid = false;      //!< the entry is trained
    };

    static constexpr unsigned kMaxConfidence = 3;
    static constexpr unsigned kTrainThreshold = 2;

    std::vector<Entry> table_;
    unsigned degree_;
};

} // namespace bvc

#endif // BVC_PREFETCH_STRIDE_PREFETCHER_HH_
