/**
 * @file
 * Region-granular functional backing store for DRAM.
 *
 * The old store was an unordered_map<Addr, Packet::Data>: one hash
 * entry per 64-byte block, which rehashes continually under
 * writeback load and scatters payloads across the heap. Blocks are
 * now grouped into aligned regions (512 blocks = 32 KiB) with one
 * map entry, a present bitmap, and one contiguous zero-initialized
 * allocation per region — 512x fewer hash entries, and block lookup
 * within a region is two shifts and a mask.
 */

#ifndef PVSIM_MEM_DRAM_STORE_HH
#define PVSIM_MEM_DRAM_STORE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "sim/types.hh"

namespace pvsim {

/** Sparse block-addressed byte store with region-sized extents. */
class DramStore
{
  public:
    static constexpr unsigned kBlocksPerRegion = 512;
    static constexpr Addr kRegionBytes =
        Addr(kBlocksPerRegion) * kBlockBytes;

    /** Bytes of a present block; nullptr if never written. */
    const uint8_t *
    find(Addr block_addr) const
    {
        auto it = regions_.find(regionBase(block_addr));
        if (it == regions_.end())
            return nullptr;
        unsigned idx = blockIndex(block_addr);
        if (!it->second.present(idx))
            return nullptr;
        return it->second.bytes.get() + size_t(idx) * kBlockBytes;
    }

    /**
     * Slot for a block, creating (zero-filled) region storage as
     * needed and marking the block present.
     */
    uint8_t *
    ensure(Addr block_addr)
    {
        Region &r = regions_[regionBase(block_addr)];
        if (!r.bytes)
            r.bytes = std::make_unique<uint8_t[]>(kRegionBytes);
        unsigned idx = blockIndex(block_addr);
        r.presentBits[idx / 64] |= 1ull << (idx % 64);
        return r.bytes.get() + size_t(idx) * kBlockBytes;
    }

    bool has(Addr block_addr) const { return find(block_addr); }

  private:
    struct Region {
        uint64_t presentBits[kBlocksPerRegion / 64] = {};
        /** kRegionBytes bytes, value-initialized (all zero). */
        std::unique_ptr<uint8_t[]> bytes;

        bool
        present(unsigned idx) const
        {
            return (presentBits[idx / 64] >> (idx % 64)) & 1u;
        }
    };

    static Addr
    regionBase(Addr block_addr)
    {
        return block_addr & ~(kRegionBytes - 1);
    }

    static unsigned
    blockIndex(Addr block_addr)
    {
        return unsigned((block_addr & (kRegionBytes - 1)) /
                        kBlockBytes);
    }

    std::unordered_map<Addr, Region> regions_;
};

} // namespace pvsim

#endif // PVSIM_MEM_DRAM_STORE_HH
