#include "prefetch/stride_prefetcher.hh"

namespace bvc
{

StridePrefetcher::StridePrefetcher(std::size_t entries, unsigned degree)
    : table_(entries),
      degree_(degree)
{
}

void
StridePrefetcher::observe(Addr pc, Addr blk, bool, std::vector<Addr> &out)
{
    Entry &entry = table_[(pc >> 2) % table_.size()];

    if (!entry.valid || entry.pcTag != pc) {
        entry = Entry{};
        entry.pcTag = pc;
        entry.lastBlk = blk;
        entry.valid = true;
        return;
    }

    // Unsigned subtraction wraps; the int64 view of the difference is
    // the stride without signed-overflow UB on far-apart addresses.
    const auto delta = static_cast<std::int64_t>(blk - entry.lastBlk);
    if (delta == 0)
        return; // same block, nothing to learn

    if (delta == entry.stride) {
        if (entry.confidence < kMaxConfidence)
            ++entry.confidence;
    } else {
        if (entry.confidence > 0) {
            --entry.confidence;
        } else {
            entry.stride = delta;
        }
    }
    entry.lastBlk = blk;

    if (entry.confidence >= kTrainThreshold && entry.stride != 0) {
        for (unsigned k = 1; k <= degree_; ++k) {
            const auto target = static_cast<std::int64_t>(
                blk + static_cast<Addr>(entry.stride) * k);
            if (target <= 0)
                break;
            out.push_back(blockAddr(static_cast<Addr>(target)));
        }
    }
}

} // namespace bvc
