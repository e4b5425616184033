/**
 * @file
 * Packing codec for PVTable lines (paper Figure 3a): all ways of one
 * predictor set — tag plus payload per entry — are packed
 * contiguously, bit-granular, into one 64-byte memory line. For the
 * virtualized SMS PHT that is 11 entries of 43 bits (11-bit tag +
 * 32-bit pattern) = 473 bits, with 39 trailing bits unused.
 *
 * An entry with a zero payload is "invalid": SMS only ever stores
 * patterns with at least two bits set, so zero is never a legal
 * stored pattern and doubles as the empty marker (this is also why a
 * zero-filled cold line decodes to an empty set).
 */

#ifndef PVSIM_CORE_PV_CODEC_HH
#define PVSIM_CORE_PV_CODEC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace pvsim {

/** Upper bound on ways a packed set may have. */
constexpr unsigned kPvMaxWays = 16;

/** One decoded predictor entry. */
struct PvEntry {
    uint32_t tag = 0;
    uint64_t payload = 0; ///< e.g. the 32-bit spatial pattern

    bool valid() const { return payload != 0; }
};

/** A decoded set: fixed-capacity array of entries. */
struct PvSet {
    std::array<PvEntry, kPvMaxWays> ways;
    unsigned numWays = 0;

    /** Way holding tag, or -1. */
    int
    findTag(uint32_t tag) const
    {
        for (unsigned w = 0; w < numWays; ++w) {
            if (ways[w].valid() && ways[w].tag == tag)
                return int(w);
        }
        return -1;
    }

    /** First invalid way, or -1 if all are occupied. */
    int
    findFree() const
    {
        for (unsigned w = 0; w < numWays; ++w) {
            if (!ways[w].valid())
                return int(w);
        }
        return -1;
    }
};

/**
 * Bit-granular (de)serializer between PvSet and a 64-byte line.
 * Geometry is (ways, tagBits, payloadBits); entry i occupies bits
 * [i*entryBits, (i+1)*entryBits) with the tag in the low tagBits.
 *
 * The per-way accessors (findTag, findFree, tagAt, payloadAt,
 * writeWay) work on the packed line in place and are what the PV
 * path uses: a find reads tags only until one matches, and a write
 * rewrites one way's bits. decode() and encode() convert whole sets;
 * they are the reference the accessors are tested against.
 */
class PvSetCodec
{
  public:
    PvSetCodec(unsigned ways, unsigned tag_bits,
               unsigned payload_bits)
        : ways_(ways), tagBits_(tag_bits), payloadBits_(payload_bits)
    {
        pv_assert(ways_ > 0 && ways_ <= kPvMaxWays,
                  "codec ways out of range");
        pv_assert(tagBits_ <= 32 && payloadBits_ <= 57 &&
                      payloadBits_ > 0,
                  "codec field widths out of range");
        pv_assert(usedBits() <= kBlockBytes * 8,
                  "set of %u x %u-bit entries does not fit a %u-byte "
                  "line",
                  ways_, entryBits(), kBlockBytes);
    }

    unsigned ways() const { return ways_; }
    unsigned tagBits() const { return tagBits_; }
    unsigned entryBits() const { return tagBits_ + payloadBits_; }
    unsigned usedBits() const { return ways_ * entryBits(); }
    unsigned unusedBits() const { return kBlockBytes * 8 - usedBits(); }

    /** Way w's tag (0 for a tagless codec). */
    uint32_t
    tagAt(const uint8_t *line, unsigned w) const
    {
        if (tagBits_ == 0)
            return 0;
        return uint32_t(reader(line).read(size_t(w) * entryBits(),
                                          int(tagBits_)));
    }

    /** Way w's payload (0 marks an empty way). */
    uint64_t
    payloadAt(const uint8_t *line, unsigned w) const
    {
        return reader(line).read(size_t(w) * entryBits() + tagBits_,
                                 int(payloadBits_));
    }

    /** The first valid way holding tag, or -1 (PvSet::findTag). */
    int
    findTag(const uint8_t *line, uint32_t tag) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (tagAt(line, w) == tag && payloadAt(line, w) != 0)
                return int(w);
        }
        return -1;
    }

    /** The first empty way, or -1 (PvSet::findFree). */
    int
    findFree(const uint8_t *line) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (payloadAt(line, w) == 0)
                return int(w);
        }
        return -1;
    }

    /** Rewrite way w's tag and payload; every other bit stays. */
    void
    writeWay(uint8_t *line, unsigned w, uint32_t tag,
             uint64_t payload) const
    {
        BitSpan s(line, kBlockBytes);
        size_t base = size_t(w) * entryBits();
        if (tagBits_ > 0)
            s.write(base, int(tagBits_), tag);
        s.write(base + tagBits_, int(payloadBits_), payload);
    }

    /** Decode a 64-byte line into entries. */
    PvSet
    decode(const uint8_t *line) const
    {
        PvSet set;
        set.numWays = ways_;
        BitSpan span(const_cast<uint8_t *>(line), kBlockBytes);
        for (unsigned w = 0; w < ways_; ++w) {
            size_t base = size_t(w) * entryBits();
            set.ways[w].tag =
                uint32_t(span.read(base, int(tagBits_ ? tagBits_ : 1)));
            if (tagBits_ == 0)
                set.ways[w].tag = 0;
            set.ways[w].payload =
                span.read(base + tagBits_, int(payloadBits_));
        }
        return set;
    }

    /** Encode entries into a 64-byte line (unused bits zeroed). */
    void
    encode(const PvSet &set, uint8_t *line) const
    {
        pv_assert(set.numWays == ways_, "set/codec way mismatch");
        for (unsigned i = 0; i < kBlockBytes; ++i)
            line[i] = 0;
        BitSpan span(line, kBlockBytes);
        for (unsigned w = 0; w < ways_; ++w) {
            size_t base = size_t(w) * entryBits();
            if (tagBits_ > 0)
                span.write(base, int(tagBits_), set.ways[w].tag);
            span.write(base + tagBits_, int(payloadBits_),
                       set.ways[w].payload);
        }
    }

  private:
    /** Reads only: BitSpan takes a mutable buffer. */
    static BitSpan
    reader(const uint8_t *line)
    {
        return BitSpan(const_cast<uint8_t *>(line), kBlockBytes);
    }

    unsigned ways_;
    unsigned tagBits_;
    unsigned payloadBits_;
};

} // namespace pvsim

#endif // PVSIM_CORE_PV_CODEC_HH
