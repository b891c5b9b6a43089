#include "compress/bdi.hh"

#include <cstring>

#include "compress/bitstream.hh"
#include "util/logging.hh"

namespace bvc
{

namespace
{

/** Read a little-endian element of `width` bytes at index `i`. */
std::uint64_t
loadElem(const std::uint8_t *line, unsigned width, unsigned i)
{
    std::uint64_t v = 0;
    std::memcpy(&v, line + static_cast<std::size_t>(i) * width, width);
    return v;
}

/** Write a little-endian element of `width` bytes at index `i`. */
void
storeElem(std::uint8_t *line, unsigned width, unsigned i, std::uint64_t v)
{
    std::memcpy(line + static_cast<std::size_t>(i) * width, &v, width);
}

bool
allZero(const std::uint8_t *line)
{
    // OR-accumulate whole words; no per-element early-exit branch.
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < kLineBytes / 8; ++i)
        acc |= loadElem(line, 8, i);
    return acc == 0;
}

bool
repeated8(const std::uint8_t *line)
{
    std::uint64_t first = 0;
    std::memcpy(&first, line, 8);
    std::uint64_t diff = 0;
    for (unsigned i = 1; i < kLineBytes / 8; ++i)
        diff |= loadElem(line, 8, i) ^ first;
    return diff == 0;
}

/**
 * The one validation kernel of a base-delta-immediate configuration,
 * shared by the size path and the encoder. Walks the elements in order:
 * an element within a DeltaBits delta of zero takes the implicit zero
 * base (mask bit clear); the first element that does not becomes the
 * explicit base; a later element that fits neither around zero nor
 * around the base fails the configuration at once. An incompressible
 * line usually fails within its first few elements, so it costs a
 * handful of compares per configuration instead of a full pass.
 * Deltas wrap in the element's own width.
 * @param base     receives the explicit base value (0 if none)
 * @param maskBits receives the mask; bit i set => element i uses base
 */
template <unsigned BaseBytes, unsigned DeltaBits>
bool
fitsBaseDelta(const std::uint8_t *line, std::uint64_t &base,
              std::uint64_t &maskBits)
{
    constexpr unsigned kElems =
        static_cast<unsigned>(kLineBytes) / BaseBytes;
    constexpr std::uint64_t kWidthMask =
        BaseBytes == 8 ? ~0ULL : (1ULL << (8 * BaseBytes)) - 1;
    constexpr std::uint64_t kHalf = 1ULL << (DeltaBits - 1);
    // Read as a signed element, v lies in [-kHalf, kHalf) exactly when
    // v + kHalf, wrapped to the element width, is below 2 * kHalf.
    const auto fits = [](std::uint64_t v) {
        return ((v + kHalf) & kWidthMask) < 2 * kHalf;
    };

    base = 0;
    maskBits = 0;
    for (unsigned i = 0; i < kElems; ++i) {
        std::uint64_t v = 0;
        std::memcpy(&v, line + static_cast<std::size_t>(i) * BaseBytes,
                    BaseBytes);
        if (fits(v))
            continue;
        if (maskBits == 0)
            base = v;
        else if (!fits(v - base))
            return false;
        maskBits |= 1ULL << i;
    }
    return true;
}

/**
 * Validate one configuration and, when `out` is given and it fits,
 * emit its payload: base, mask, then one truncated delta per element.
 */
template <unsigned BaseBytes, unsigned DeltaBytes>
bool
tryBaseDelta(const std::uint8_t *line, std::vector<std::uint8_t> *out)
{
    constexpr unsigned kElems =
        static_cast<unsigned>(kLineBytes) / BaseBytes;

    std::uint64_t base = 0, maskBits = 0;
    if (!fitsBaseDelta<BaseBytes, DeltaBytes * 8>(line, base, maskBits))
        return false;
    if (out == nullptr)
        return true;

    out->clear();
    out->reserve(BaseBytes + kElems / 8 + kElems * DeltaBytes);
    for (unsigned b = 0; b < BaseBytes; ++b)
        out->push_back(static_cast<std::uint8_t>(base >> (8 * b)));
    for (unsigned b = 0; b < kElems / 8; ++b)
        out->push_back(static_cast<std::uint8_t>(maskBits >> (8 * b)));
    for (unsigned i = 0; i < kElems; ++i) {
        const std::uint64_t raw = loadElem(line, BaseBytes, i);
        const std::uint64_t delta =
            (maskBits & (1ULL << i)) ? raw - base : raw;
        for (unsigned b = 0; b < DeltaBytes; ++b)
            out->push_back(static_cast<std::uint8_t>(delta >> (8 * b)));
    }
    return true;
}

/**
 * The smallest base-delta encoding that fits `line` (its payload goes
 * to `out` when given), or Uncompressed. The fixed encoded sizes are
 * non-decreasing in this order (17, 22, 25, 38, 38, 41 bytes), so the
 * first configuration that fits is a smallest.
 */
BdiCompressor::Encoding
firstBaseDelta(const std::uint8_t *line, std::vector<std::uint8_t> *out)
{
    if (tryBaseDelta<8, 1>(line, out))
        return BdiCompressor::B8D1;
    if (tryBaseDelta<4, 1>(line, out))
        return BdiCompressor::B4D1;
    if (tryBaseDelta<8, 2>(line, out))
        return BdiCompressor::B8D2;
    if (tryBaseDelta<2, 1>(line, out))
        return BdiCompressor::B2D1;
    if (tryBaseDelta<4, 2>(line, out))
        return BdiCompressor::B4D2;
    if (tryBaseDelta<8, 4>(line, out))
        return BdiCompressor::B8D4;
    return BdiCompressor::Uncompressed;
}

} // namespace

std::size_t
BdiCompressor::encodedBytes(Encoding enc)
{
    switch (enc) {
      case Zeros: return 1;
      case Rep8: return 8;
      case B8D1: return 8 + 8 * 1 + 1;   // base + deltas + mask
      case B8D2: return 8 + 8 * 2 + 1;
      case B8D4: return 8 + 8 * 4 + 1;
      case B4D1: return 4 + 16 * 1 + 2;
      case B4D2: return 4 + 16 * 2 + 2;
      case B2D1: return 2 + 32 * 1 + 4;
      case Uncompressed: return kLineBytes;
      default: panic("BDI: unknown encoding");
    }
}

void
BdiCompressor::decodeBaseDelta(const CompressedBlock &block,
                               unsigned baseBytes, unsigned deltaBytes,
                               std::uint8_t *out)
{
    const unsigned elems = static_cast<unsigned>(kLineBytes) / baseBytes;
    const std::uint8_t *p = block.payload.data();

    std::uint64_t base = 0;
    for (unsigned b = 0; b < baseBytes; ++b)
        base |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    p += baseBytes;

    std::uint64_t maskBits = 0;
    for (unsigned b = 0; b < elems / 8; ++b)
        maskBits |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    p += elems / 8;

    for (unsigned i = 0; i < elems; ++i) {
        std::uint64_t delta = 0;
        for (unsigned b = 0; b < deltaBytes; ++b)
            delta |= static_cast<std::uint64_t>(p[b]) << (8 * b);
        p += deltaBytes;
        // Deltas are stored truncated; sign-extend to recover them.
        const auto wide = static_cast<std::uint64_t>(
            signExtend(delta, deltaBytes * 8));
        const std::uint64_t value =
            (maskBits & (1ULL << i)) ? base + wide : wide;
        storeElem(out, baseBytes, i, value);
    }
}

CompressedBlock
BdiCompressor::compress(const std::uint8_t *line) const
{
    CompressedBlock block;

    if (allZero(line)) {
        block.encoding = Zeros;
        block.payload.assign(1, 0);
        return block;
    }
    if (repeated8(line)) {
        block.encoding = Rep8;
        block.payload.assign(line, line + 8);
        return block;
    }

    block.encoding = firstBaseDelta(line, &block.payload);
    if (block.encoding == Uncompressed)
        block.payload.assign(line, line + kLineBytes);
    return block;
}

std::size_t
BdiCompressor::compressedBytes(const std::uint8_t *line) const
{
    if (allZero(line))
        return encodedBytes(Zeros);
    if (repeated8(line))
        return encodedBytes(Rep8);
    // Validation only: each configuration's encoded size is fixed.
    return encodedBytes(firstBaseDelta(line, nullptr));
}

void
BdiCompressor::decompress(const CompressedBlock &block,
                          std::uint8_t *out) const
{
    switch (block.encoding) {
      case Zeros:
        std::memset(out, 0, kLineBytes);
        return;
      case Rep8:
        panicIf(block.payload.size() != 8, "BDI Rep8 payload size");
        for (unsigned i = 0; i < kLineBytes / 8; ++i)
            std::memcpy(out + 8 * i, block.payload.data(), 8);
        return;
      case B8D1: decodeBaseDelta(block, 8, 1, out); return;
      case B8D2: decodeBaseDelta(block, 8, 2, out); return;
      case B8D4: decodeBaseDelta(block, 8, 4, out); return;
      case B4D1: decodeBaseDelta(block, 4, 1, out); return;
      case B4D2: decodeBaseDelta(block, 4, 2, out); return;
      case B2D1: decodeBaseDelta(block, 2, 1, out); return;
      case Uncompressed:
        panicIf(block.payload.size() != kLineBytes,
                "BDI uncompressed payload size");
        std::memcpy(out, block.payload.data(), kLineBytes);
        return;
      default:
        panic("BDI: decompress of unknown encoding");
    }
}

} // namespace bvc
