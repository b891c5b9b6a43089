/**
 * @file
 * Victim-Cache replacement policies (Section IV.B + VI.B.4). When the
 * Baseline Cache evicts line B, the Victim Cache picks one of the ways
 * where B fits next to the resident base line; the policies below differ
 * in how they break ties among the fitting ways:
 *
 *   Random   uniformly random fitting way (the paper's example policy)
 *   Ecm      the fitting way with the largest base partner (the paper's
 *            default, "inspired by ECM [4]": it packs victims next to
 *            big base lines, preserving small-base ways for future big
 *            victims and maximizing effective capacity)
 *   Lru      least-recently inserted/hit victim line first
 *   SizeMix  tightest fit: smallest remaining free space after insertion
 *   Camp     CAMP-inspired [29] (Section VII.C future work): compressed
 *            size as a reuse-value indicator — evict the resident
 *            victim line occupying the most segments
 */

#ifndef BVC_CORE_VICTIM_REPLACEMENT_HH_
#define BVC_CORE_VICTIM_REPLACEMENT_HH_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/strong_types.hh"
#include "util/types.hh"

namespace bvc
{

/** Victim-cache policy variants of Section VI.B.4. */
enum class VictimReplKind
{
    Random,
    Ecm,
    Lru,
    SizeMix,
    Camp,
};

/** Per-candidate context for victim-way selection. */
struct VictimCandidate
{
    WayIdx way{0};
    SegCount baseSegments{0};        //!< size of the base partner line
    bool victimValid = false;        //!< a victim line would be displaced
    SegCount victimSegments{0};      //!< size of that victim line
};

/** Strategy object choosing among fitting victim-cache ways. */
class VictimReplacement
{
  public:
    VictimReplacement(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways)
    {
    }

    virtual ~VictimReplacement() = default;

    /**
     * Pick one candidate (all already satisfy the fit constraint).
     * Candidates that displace no valid victim line are presented
     * first-class; policies may prefer them.
     */
    [[nodiscard]] virtual WayIdx
    choose(SetIdx set, std::span<const VictimCandidate> candidates) = 0;

    /** A victim line was installed at (set, way). */
    virtual void onInsert(SetIdx, WayIdx) {}

    /** The victim line at (set, way) was hit (promoted). */
    virtual void onHit(SetIdx, WayIdx) {}

    [[nodiscard]] virtual std::string name() const = 0;

  protected:
    /** Row-major flat index into per-line state vectors. */
    [[nodiscard]] std::size_t idx(SetIdx set, WayIdx way) const
    {
        return set.get() * ways_ + way.get();
    }

    std::size_t sets_;
    std::size_t ways_;
};

/** Construct a victim policy for a (sets x physWays) victim array. */
[[nodiscard]] std::unique_ptr<VictimReplacement>
makeVictimReplacement(VictimReplKind kind, std::size_t sets,
                      std::size_t ways);

/** Construct by name ("random", "ecm", "lru", "sizemix"). */
[[nodiscard]] std::unique_ptr<VictimReplacement>
makeVictimReplacement(const std::string &name, std::size_t sets,
                      std::size_t ways);

/** Printable name. */
[[nodiscard]] std::string victimReplName(VictimReplKind kind);

/** All kinds (for the VI.B.4 sensitivity bench and tests). */
[[nodiscard]] std::vector<VictimReplKind> allVictimReplKinds();

} // namespace bvc

#endif // BVC_CORE_VICTIM_REPLACEMENT_HH_
