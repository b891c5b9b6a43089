/**
 * @file
 * Sparse functional memory holding the actual bytes of every touched
 * cache line. It is the single source of data truth in the model: stores
 * update it immediately, and the compressed LLC reads line contents from
 * it when computing compressed sizes on fills and writebacks. A line is
 * found through its 1 KB page of 16 lines: a hash map keyed by page
 * number, behind a one-entry last-page cache, holds each page's line
 * pointers. Lines are materialized one at a time, on first touch, from a
 * workload-specific data pattern, which is how the synthetic traces
 * control compressibility; only touched lines take storage.
 */

#ifndef BVC_MEMORY_FUNCTIONAL_MEMORY_HH_
#define BVC_MEMORY_FUNCTIONAL_MEMORY_HH_

#include <array>
#include <bit>
#include <cstring>
#include <deque>
#include <functional>
#include <type_traits>
#include <unordered_map>

#include "util/types.hh"

namespace bvc
{

/** Byte-accurate sparse memory with lazy pattern-based initialization. */
class FunctionalMemory
{
  public:
    using LineInitFn = std::function<void(Addr, std::uint8_t *)>;

    /**
     * @param init fills a 64B buffer with the initial content of a
     *             block address; defaults to all-zero memory
     */
    explicit FunctionalMemory(LineInitFn init = nullptr)
        : init_(std::move(init))
    {
    }

    FunctionalMemory(const FunctionalMemory &) = delete;
    FunctionalMemory &operator=(const FunctionalMemory &) = delete;
    FunctionalMemory(FunctionalMemory &&) = default;
    FunctionalMemory &operator=(FunctionalMemory &&) = default;

    /** Current content of the line containing `blk` (materializes it). */
    const std::uint8_t *
    line(Addr blk)
    {
        return lineMutable(blockAddr(blk));
    }

    /** Store `value` (8 bytes, little-endian) at 8-byte-aligned `addr`. */
    void
    store64(Addr addr, std::uint64_t value)
    {
        std::uint8_t *data = lineMutable(blockAddr(addr));
        const unsigned offset = blockOffset(addr) & ~7u;
        std::memcpy(data + offset, &value, 8);
    }

    /** Load 8 bytes from 8-byte-aligned `addr`. */
    std::uint64_t
    load64(Addr addr)
    {
        const std::uint8_t *data = line(addr);
        const unsigned offset = blockOffset(addr) & ~7u;
        std::uint64_t value = 0;
        std::memcpy(&value, data + offset, 8);
        return value;
    }

    /** Number of materialized lines (footprint accounting). */
    std::size_t touchedLines() const { return lines_.size(); }

  private:
    /** Lines per page: 16 x 64 B = 1 KB of address space. */
    static constexpr unsigned kPageLines = 16;
    /** log2 of the page size in bytes. */
    static constexpr unsigned kPageShift =
        kLineShift + std::countr_zero(kPageLines);

    /** One line's bytes. */
    using Line = std::array<std::uint8_t, kLineBytes>;

    /** A page's line i points at its bytes in lines_, or is null
     *  until the line is first touched. */
    using Page = std::array<std::uint8_t *, kPageLines>;

    /**
     * The most recently used page. Map nodes stay put across a rehash,
     * so the pointer stays valid while the map lives. A move leaves
     * both the source and the destination cache empty, so neither can
     * point into pages the other owns.
     */
    struct LastPage
    {
        /** No page number: addresses are 64-bit, page numbers shorter. */
        static constexpr Addr kNone = ~Addr{0};

        /** Page number of `page`, or kNone. */
        Addr num = kNone;
        /** The cached page; meaningful only when num != kNone. */
        Page *page = nullptr;

        LastPage() = default;
        /** Starts empty and empties `other`. */
        LastPage(LastPage &&other) noexcept { other.clear(); }
        /** Empties both this cache and `other`. */
        LastPage &
        operator=(LastPage &&other) noexcept
        {
            clear();
            other.clear();
            return *this;
        }

        /** Forget the cached page. */
        void
        clear()
        {
            num = kNone;
            page = nullptr;
        }
    };

    std::uint8_t *
    lineMutable(Addr blk)
    {
        const Addr num = blk >> kPageShift;
        if (num != last_.num) {
            last_.page = &pages_[num];
            last_.num = num;
        }
        std::uint8_t *&data =
            (*last_.page)[(blk >> kLineShift) & (kPageLines - 1)];
        if (!data) {
            data = lines_.emplace_back().data(); // zeroed
            if (init_)
                init_(blk, data);
        }
        return data;
    }

    LineInitFn init_;
    /**
     * Line bytes in first-touch order. Growing a deque at its end never
     * moves its elements, so the pointers in pages_ stay valid.
     */
    std::deque<Line> lines_;
    /** Pages keyed by page number (address >> kPageShift). */
    std::unordered_map<Addr, Page> pages_;
    LastPage last_;
};

static_assert(!std::is_copy_constructible_v<FunctionalMemory> &&
              !std::is_copy_assignable_v<FunctionalMemory>);
static_assert(std::is_nothrow_move_assignable_v<FunctionalMemory>);

} // namespace bvc

#endif // BVC_MEMORY_FUNCTIONAL_MEMORY_HH_
