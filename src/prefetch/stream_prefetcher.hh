/**
 * @file
 * Multi-stream region prefetcher (the "aggressive multi-stream"
 * prefetcher class of Section V), used at the L2 and LLC. Tracks several
 * concurrent sequential streams within 4KB regions, learns each stream's
 * direction, and runs `distance` blocks ahead with `degree` prefetches
 * per trigger.
 */

#ifndef BVC_PREFETCH_STREAM_PREFETCHER_HH_
#define BVC_PREFETCH_STREAM_PREFETCHER_HH_

#include "prefetch/prefetcher.hh"

namespace bvc
{

/** Region-based multi-stream detector. */
class StreamPrefetcher : public Prefetcher
{
  public:
    explicit StreamPrefetcher(
        std::size_t streams = 16, //!< concurrent streams tracked
        unsigned degree = 2,      //!< prefetches per trained trigger
        unsigned distance = 4);   //!< blocks run ahead of the demand

    /** Train the matching stream and append the blocks it runs ahead. */
    void observe(Addr pc, Addr blk, bool miss,
                 std::vector<Addr> &out) override;

  private:
    struct Stream
    {
        Addr region = 0;       //!< region base (4KB aligned)
        unsigned lastBlock = 0; //!< last block index within region
        int direction = 0;      //!< +1 / -1 once learned
        unsigned confidence = 0; //!< direction confirmations so far
        bool valid = false;      //!< the slot tracks a stream
        Tick lastUse = 0;        //!< LRU stamp for slot replacement
    };

    static constexpr unsigned kRegionShift = 12; // 4KB regions
    static constexpr unsigned kBlocksPerRegion =
        1u << (kRegionShift - kLineShift);
    static constexpr unsigned kTrainThreshold = 2;

    std::vector<Stream> streams_;
    unsigned degree_;
    unsigned distance_;
    Tick tick_ = 0;
};

} // namespace bvc

#endif // BVC_PREFETCH_STREAM_PREFETCHER_HH_
