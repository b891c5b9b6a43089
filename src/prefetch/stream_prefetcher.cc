#include "prefetch/stream_prefetcher.hh"

namespace bvc
{

StreamPrefetcher::StreamPrefetcher(std::size_t streams, unsigned degree,
                                   unsigned distance)
    : streams_(streams),
      degree_(degree),
      distance_(distance)
{
}

void
StreamPrefetcher::observe(Addr, Addr blk, bool, std::vector<Addr> &out)
{
    ++tick_;
    const Addr region = blk >> kRegionShift << kRegionShift;
    const auto block = static_cast<unsigned>(
        (blk >> kLineShift) & (kBlocksPerRegion - 1));

    // Find the stream covering this region (or an adjacent one that the
    // access naturally continues into).
    Stream *match = nullptr;
    for (Stream &stream : streams_) {
        if (!stream.valid)
            continue;
        if (stream.region == region) {
            match = &stream;
            break;
        }
        // A trained stream crossing into the next/previous region keeps
        // its state rather than retraining from scratch.
        const Addr next = stream.region +
            (stream.direction >= 0 ? (1ULL << kRegionShift)
                                   : -(1ULL << kRegionShift));
        if (stream.confidence >= kTrainThreshold && next == region) {
            stream.region = region;
            stream.lastBlock =
                stream.direction >= 0 ? 0 : kBlocksPerRegion - 1;
            match = &stream;
            break;
        }
    }

    if (match == nullptr) {
        // Allocate the least recently used stream.
        Stream *lru = &streams_[0];
        for (Stream &stream : streams_) {
            if (!stream.valid) {
                lru = &stream;
                break;
            }
            if (stream.lastUse < lru->lastUse)
                lru = &stream;
        }
        *lru = Stream{};
        lru->region = region;
        lru->lastBlock = block;
        lru->valid = true;
        lru->lastUse = tick_;
        return;
    }

    match->lastUse = tick_;
    const int delta =
        static_cast<int>(block) - static_cast<int>(match->lastBlock);
    if (delta == 0)
        return;

    const int direction = delta > 0 ? 1 : -1;
    if (match->direction == direction) {
        if (match->confidence < kTrainThreshold + 2)
            ++match->confidence;
    } else if (match->confidence > 0) {
        --match->confidence;
    } else {
        match->direction = direction;
        match->confidence = 1;
    }
    match->lastBlock = block;

    if (match->confidence >= kTrainThreshold) {
        for (unsigned k = 1; k <= degree_; ++k) {
            const auto offset = static_cast<std::int64_t>(distance_ +
                                                          k - 1) *
                                match->direction;
            const auto target = static_cast<std::int64_t>(blk) +
                offset * static_cast<std::int64_t>(kLineBytes);
            if (target <= 0)
                break;
            out.push_back(blockAddr(static_cast<Addr>(target)));
        }
    }
}

} // namespace bvc
