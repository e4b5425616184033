/**
 * @file
 * Bitfield extraction and insertion helpers (gem5-style) plus a
 * bit-granular packer/unpacker used to lay predictor entries into
 * cache-block-sized lines (paper Figure 3a).
 */

#ifndef PVSIM_UTIL_BITFIELD_HH
#define PVSIM_UTIL_BITFIELD_HH

#include <cassert>
#include <cstdint>
#include <cstring>

namespace pvsim {

/** Generate a mask of nbits ones in the low-order positions. */
constexpr uint64_t
mask(int nbits)
{
    return nbits >= 64 ? ~0ULL : (1ULL << nbits) - 1;
}

/** Extract bits [first, last] (inclusive, last >= first) from val. */
constexpr uint64_t
bits(uint64_t val, int last, int first)
{
    assert(last >= first);
    return (val >> first) & mask(last - first + 1);
}

/** Extract the single bit at position bit. */
constexpr uint64_t
bits(uint64_t val, int bit)
{
    return (val >> bit) & 1ULL;
}

/** Return val with bits [first, last] replaced by the low bits of in. */
constexpr uint64_t
insertBits(uint64_t val, int last, int first, uint64_t in)
{
    assert(last >= first);
    const uint64_t m = mask(last - first + 1);
    return (val & ~(m << first)) | ((in & m) << first);
}

/** Population count convenience wrapper. */
constexpr int
popCount(uint64_t val)
{
    return __builtin_popcountll(val);
}

/**
 * Reads and writes arbitrary-width bit fields at arbitrary bit
 * offsets within a byte buffer. Bit order is little-endian within the
 * buffer: bit i of the field lands at overall bit (offset + i), which
 * is bit ((offset + i) % 8) of byte ((offset + i) / 8).
 *
 * This is the codec primitive for packing 43-bit PHT entries into a
 * 64-byte PVTable line. Each access loads one 8-byte window as a
 * little-endian word: the window starts at the field's first byte, or
 * at the buffer's last eight bytes for a field that ends near the
 * end, so it never reads past the buffer.
 */
class BitSpan
{
  public:
    static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                  "BitSpan loads its windows as little-endian words");

    /** @pre size_bytes >= 8 (one window). */
    BitSpan(uint8_t *data, size_t size_bytes)
        : data_(data), sizeBits_(size_bytes * 8)
    {
        assert(size_bytes >= 8);
    }

    /**
     * Read an nbits-wide field starting at bit offset.
     * @pre nbits <= 57 and the field lies within the span (57 so the
     *      value plus intra-byte shift fits one 64-bit window).
     */
    uint64_t
    read(size_t offset, int nbits) const
    {
        assert(nbits > 0 && nbits <= 57);
        assert(offset + size_t(nbits) <= sizeBits_);
        const size_t byte = windowByte(offset);
        return (load(byte) >> (offset - 8 * byte)) & mask(nbits);
    }

    /**
     * Write the low nbits of val into the field starting at bit
     * offset; every other bit of the window is stored unchanged.
     * @pre nbits <= 57 (see read()).
     */
    void
    write(size_t offset, int nbits, uint64_t val)
    {
        assert(nbits > 0 && nbits <= 57);
        assert(offset + size_t(nbits) <= sizeBits_);
        const size_t byte = windowByte(offset);
        const unsigned shift = unsigned(offset - 8 * byte);
        const uint64_t m = mask(nbits) << shift;
        const uint64_t window =
            (load(byte) & ~m) | ((val << shift) & m);
        std::memcpy(data_ + byte, &window, sizeof(window));
    }

  private:
    /** First byte of the window that holds a field at offset. */
    size_t
    windowByte(size_t offset) const
    {
        const size_t last = sizeBits_ / 8 - sizeof(uint64_t);
        const size_t byte = offset >> 3;
        return byte < last ? byte : last;
    }

    uint64_t
    load(size_t byte) const
    {
        uint64_t window;
        std::memcpy(&window, data_ + byte, sizeof(window));
        return window;
    }

    uint8_t *data_;
    size_t sizeBits_;
};

} // namespace pvsim

#endif // PVSIM_UTIL_BITFIELD_HH
