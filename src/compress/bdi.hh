/**
 * @file
 * Base-Delta-Immediate (BDI) compression [Pekhimenko et al., PACT 2012],
 * the algorithm the paper uses for its LLC (Section V). A line is encoded
 * as one explicit base of k bytes plus per-element deltas of d bytes;
 * each element may instead take its delta from an implicit zero base
 * (the "immediate" part), selected by a per-element mask bit.
 *
 * Supported encodings and their exact sizes for a 64B line:
 *
 *   Zeros          line is all zero bytes                ->  1 byte
 *   Rep8           single repeated 8-byte value          ->  8 bytes
 *   B8D1/B8D2/B8D4 8B base, 8 elems, 1/2/4B deltas + 1B mask
 *   B4D1/B4D2      4B base, 16 elems, 1/2B deltas + 2B mask
 *   B2D1           2B base, 32 elems, 1B deltas + 4B mask
 *   Uncompressed   64 bytes verbatim
 *
 * The compressor picks the smallest applicable encoding.
 */

#ifndef BVC_COMPRESS_BDI_HH_
#define BVC_COMPRESS_BDI_HH_

#include "compress/compressor.hh"

namespace bvc
{

/** BDI codec; see file comment for the encoding set. */
class BdiCompressor : public Compressor
{
  public:
    /** Encoding ids stored in CompressedBlock::encoding. */
    enum Encoding : std::uint32_t
    {
        Zeros = 0,
        Rep8,
        B8D1,
        B8D2,
        B8D4,
        B4D1,
        B4D2,
        B2D1,
        Uncompressed,
        NumEncodings,
    };

    CompressedBlock compress(const std::uint8_t *line) const override;
    /** Size-only path: the validation kernel only, no payload. */
    std::size_t compressedBytes(const std::uint8_t *line) const override;
    void decompress(const CompressedBlock &block,
                    std::uint8_t *out) const override;
    std::string name() const override { return "BDI"; }

    /** Exact encoded size in bytes for a base/delta configuration. */
    static std::size_t encodedBytes(Encoding enc);

  private:
    static void decodeBaseDelta(const CompressedBlock &block,
                                unsigned baseBytes, unsigned deltaBytes,
                                std::uint8_t *out);
};

} // namespace bvc

#endif // BVC_COMPRESS_BDI_HH_
