#include "core/victim_replacement.hh"

#include "util/logging.hh"

namespace bvc
{

namespace
{

/** Uniformly random fitting way (Section IV.B examples). */
class RandomVictimRepl : public VictimReplacement
{
  public:
    RandomVictimRepl(std::size_t sets, std::size_t ways)
        : VictimReplacement(sets, ways),
          rng_(0x5eedc0de)
    {
    }

    [[nodiscard]] WayIdx
    choose(SetIdx, std::span<const VictimCandidate> candidates) override
    {
        return candidates[rng_.range(candidates.size())].way;
    }

    [[nodiscard]] std::string name() const override { return "Random"; }

  private:
    Rng rng_;
};

/**
 * The paper's default (Section IV.B): prefer empty victim slots, then
 * the candidate with the largest base partner line.
 */
class EcmVictimRepl : public VictimReplacement
{
  public:
    using VictimReplacement::VictimReplacement;

    [[nodiscard]] WayIdx
    choose(SetIdx, std::span<const VictimCandidate> candidates) override
    {
        const VictimCandidate *best = nullptr;
        // First pass: empty slots only (displace nothing).
        for (const auto &cand : candidates) {
            if (cand.victimValid)
                continue;
            if (best == nullptr || cand.baseSegments > best->baseSegments)
                best = &cand;
        }
        if (best == nullptr) {
            for (const auto &cand : candidates) {
                if (best == nullptr ||
                    cand.baseSegments > best->baseSegments) {
                    best = &cand;
                }
            }
        }
        return best->way;
    }

    [[nodiscard]] std::string name() const override { return "ECM"; }
};

/** Evict the least recently inserted/hit victim line (VI.B.4). */
class LruVictimRepl : public VictimReplacement
{
  public:
    LruVictimRepl(std::size_t sets, std::size_t ways)
        : VictimReplacement(sets, ways),
          stamps_(sets * ways, 0)
    {
    }

    [[nodiscard]] WayIdx
    choose(SetIdx set, std::span<const VictimCandidate> candidates) override
    {
        const VictimCandidate *best = nullptr;
        Tick bestStamp = 0;
        for (const auto &cand : candidates) {
            if (!cand.victimValid)
                return cand.way; // free slot: nothing to evict
            const Tick stamp = stamps_[idx(set, cand.way)];
            if (best == nullptr || stamp < bestStamp) {
                best = &cand;
                bestStamp = stamp;
            }
        }
        return best->way;
    }

    void
    onInsert(SetIdx set, WayIdx way) override
    {
        stamps_[idx(set, way)] = ++tick_;
    }

    void
    onHit(SetIdx set, WayIdx way) override
    {
        stamps_[idx(set, way)] = ++tick_;
    }

    [[nodiscard]] std::string name() const override { return "LRU"; }

  private:
    std::vector<Tick> stamps_;
    Tick tick_ = 0;
};

/** Tightest fit: minimize leftover free segments in the chosen way. */
class SizeMixVictimRepl : public VictimReplacement
{
  public:
    using VictimReplacement::VictimReplacement;

    [[nodiscard]] WayIdx
    choose(SetIdx, std::span<const VictimCandidate> candidates) override
    {
        const VictimCandidate *best = nullptr;
        bool bestFree = false;
        SegCount bestBase{0};
        for (const auto &cand : candidates) {
            const bool free = !cand.victimValid;
            // Prefer free slots; among equals prefer the tightest
            // pairing (largest base partner == least waste).
            if (best == nullptr || (free && !bestFree) ||
                (free == bestFree && cand.baseSegments > bestBase)) {
                best = &cand;
                bestFree = free;
                bestBase = cand.baseSegments;
            }
        }
        return best->way;
    }

    [[nodiscard]] std::string name() const override { return "SizeMix"; }
};

/**
 * CAMP-inspired (Section VII.C): compressed block size as an indicator
 * of future reuse value. Free slots first; otherwise displace the
 * resident victim line with the largest compressed size (lowest value
 * density), breaking ties toward the larger base partner.
 */
class CampVictimRepl : public VictimReplacement
{
  public:
    using VictimReplacement::VictimReplacement;

    [[nodiscard]] WayIdx
    choose(SetIdx, std::span<const VictimCandidate> candidates) override
    {
        const VictimCandidate *best = nullptr;
        for (const auto &cand : candidates) {
            if (cand.victimValid)
                continue;
            if (best == nullptr || cand.baseSegments > best->baseSegments)
                best = &cand;
        }
        if (best == nullptr) {
            for (const auto &cand : candidates) {
                if (best == nullptr ||
                    cand.victimSegments > best->victimSegments ||
                    (cand.victimSegments == best->victimSegments &&
                     cand.baseSegments > best->baseSegments)) {
                    best = &cand;
                }
            }
        }
        return best->way;
    }

    [[nodiscard]] std::string name() const override { return "CAMP"; }
};

} // namespace

std::unique_ptr<VictimReplacement>
makeVictimReplacement(VictimReplKind kind, std::size_t sets,
                      std::size_t ways)
{
    switch (kind) {
      case VictimReplKind::Random:
        return std::make_unique<RandomVictimRepl>(sets, ways);
      case VictimReplKind::Ecm:
        return std::make_unique<EcmVictimRepl>(sets, ways);
      case VictimReplKind::Lru:
        return std::make_unique<LruVictimRepl>(sets, ways);
      case VictimReplKind::SizeMix:
        return std::make_unique<SizeMixVictimRepl>(sets, ways);
      case VictimReplKind::Camp:
        return std::make_unique<CampVictimRepl>(sets, ways);
    }
    panic("makeVictimReplacement: unknown kind");
}

std::unique_ptr<VictimReplacement>
makeVictimReplacement(const std::string &name, std::size_t sets,
                      std::size_t ways)
{
    if (name == "random")
        return makeVictimReplacement(VictimReplKind::Random, sets, ways);
    if (name == "ecm")
        return makeVictimReplacement(VictimReplKind::Ecm, sets, ways);
    if (name == "lru")
        return makeVictimReplacement(VictimReplKind::Lru, sets, ways);
    if (name == "sizemix")
        return makeVictimReplacement(VictimReplKind::SizeMix, sets, ways);
    if (name == "camp")
        return makeVictimReplacement(VictimReplKind::Camp, sets, ways);
    fatal("unknown victim replacement name: " + name);
}

std::string
victimReplName(VictimReplKind kind)
{
    switch (kind) {
      case VictimReplKind::Random: return "Random";
      case VictimReplKind::Ecm: return "ECM";
      case VictimReplKind::Lru: return "LRU";
      case VictimReplKind::SizeMix: return "SizeMix";
      case VictimReplKind::Camp: return "CAMP";
    }
    panic("victimReplName: unknown kind");
}

std::vector<VictimReplKind>
allVictimReplKinds()
{
    return {VictimReplKind::Random, VictimReplKind::Ecm,
            VictimReplKind::Lru, VictimReplKind::SizeMix,
            VictimReplKind::Camp};
}

} // namespace bvc
