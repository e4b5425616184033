/**
 * @file
 * Cache block (line) state. One CacheBlk per way per set; payload
 * storage is lazily allocated because only PV data carries real
 * bytes through the hierarchy.
 */

#ifndef PVSIM_MEM_CACHE_BLK_HH
#define PVSIM_MEM_CACHE_BLK_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace pvsim {

/**
 * Fixed-size set of upstream directory slots. A plain uint32_t mask
 * capped the L2 at 32 coherent clients — a 64-core system has 128
 * L1s — so the directory tracks sharers in a small array of words
 * instead.
 */
struct SharerSet {
    static constexpr unsigned kSlots = 256;
    static constexpr unsigned kWords = kSlots / 64;

    uint64_t words[kWords] = {};

    void set(unsigned slot) { words[slot / 64] |= 1ull << (slot % 64); }
    void clear(unsigned slot)
    {
        words[slot / 64] &= ~(1ull << (slot % 64));
    }
    bool
    test(unsigned slot) const
    {
        return (words[slot / 64] >> (slot % 64)) & 1u;
    }
    void
    reset()
    {
        for (auto &w : words)
            w = 0;
    }
    bool
    any() const
    {
        for (auto w : words)
            if (w)
                return true;
        return false;
    }
    bool none() const { return !any(); }
};

/**
 * State of one cache line, including directory info when in an L2.
 * The cache keeps its LRU stamps in a separate array (Cache::
 * lastTouch_), not here.
 */
struct CacheBlk {
    /** Tag (the full block address, for simplicity and debugging). */
    Addr blockAddr = 0;

    bool valid = false;
    /** Locally modified relative to the level below. */
    bool dirty = false;
    /** Held in M/E: stores may hit without an upgrade. */
    bool writable = false;

    /** Filled by a prefetch and not yet touched by demand. */
    bool wasPrefetched = false;
    /** Instruction-side block (for stats only). */
    bool isInst = false;
    /** PV-range block (stats classification only). */
    bool isPv = false;

    /**
     * Directory state (used only by an inclusive L2): the set of
     * upstream coherent clients holding this block, and which (if
     * any) may have a dirty copy.
     */
    SharerSet sharers;
    int16_t ownerSlot = -1;

    /** Optional payload (PV blocks only in practice). */
    std::unique_ptr<std::array<uint8_t, kBlockBytes>> data;

    bool hasData() const { return data != nullptr; }

    std::array<uint8_t, kBlockBytes> &
    ensureData()
    {
        if (!data) {
            data = std::make_unique<std::array<uint8_t, kBlockBytes>>();
            data->fill(0);
        }
        return *data;
    }

    /** Return to the invalid state, releasing any payload. */
    void
    invalidate()
    {
        valid = false;
        dirty = false;
        writable = false;
        wasPrefetched = false;
        isInst = false;
        isPv = false;
        sharers.reset();
        ownerSlot = -1;
        data.reset();
    }
};

// Frames hold over half of a 64-core System's resident memory: about
// 262k of them, each with an 8-byte tag mirror and LRU stamp beside
// it. Keep a frame within one 64-byte host cache line.
static_assert(sizeof(CacheBlk) <= 64, "CacheBlk grew past 64 bytes");

} // namespace pvsim

#endif // PVSIM_MEM_CACHE_BLK_HH
