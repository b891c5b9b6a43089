/**
 * @file
 * Hardware prefetcher interface. The paper models "per-core aggressive
 * multi-stream instruction and data prefetchers for the L1, L2 and LLC"
 * (Section V); we provide a PC-indexed stride prefetcher (L1 class) and
 * a region-based multi-stream prefetcher (L2/LLC class).
 */

#ifndef BVC_PREFETCH_PREFETCHER_HH_
#define BVC_PREFETCH_PREFETCHER_HH_

#include <vector>

#include "util/types.hh"

namespace bvc
{

/** Abstract prefetcher trained on demand accesses. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Train on one demand access and append prefetch candidates.
     * @param pc   program counter of the access (0 if unavailable)
     * @param blk  block-aligned demand address
     * @param miss whether the demand access missed at this level
     * @param[out] out block addresses to prefetch (appended)
     */
    virtual void observe(Addr pc, Addr blk, bool miss,
                         std::vector<Addr> &out) = 0;
};

} // namespace bvc

#endif // BVC_PREFETCH_PREFETCHER_HH_
