// bvlint fixture: trips exactly BV010, once. The continuation line of a
// declaration split over two lines is not a data member; the
// undocumented member right after it still is.

#ifndef BVC_TESTS_LINT_FIXTURES_BAD_MEMBER_DOC_CONTINUATION_HH_
#define BVC_TESTS_LINT_FIXTURES_BAD_MEMBER_DOC_CONTINUATION_HH_

#include <cstddef>
#include <cstdint>

struct Codec
{
    /** Decode one line. */
    void decode(const std::uint8_t *in,
                std::uint8_t *out) const;
    std::size_t undocumented = 0;
};

#endif // BVC_TESTS_LINT_FIXTURES_BAD_MEMBER_DOC_CONTINUATION_HH_
