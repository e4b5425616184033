/**
 * @file
 * Cache block (line) state. One CacheBlk per way per set; payload
 * storage is lazily allocated because only PV data carries real
 * bytes through the hierarchy. A frame does not record whether it
 * holds PV or instruction data: the owning Cache classifies a block
 * by its address (Cache::isPv).
 */

#ifndef PVSIM_MEM_CACHE_BLK_HH
#define PVSIM_MEM_CACHE_BLK_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace pvsim {

/**
 * Line state of one cache frame. The owning Cache keeps the rest of
 * a frame beside it in flat arrays: the block address, which is
 * also the frame's only validity record (Cache::tags_), the LRU
 * stamp (lastTouch_) and, in a directory cache, the sharer bits
 * (sharers_).
 */
struct CacheBlk {
    /** Optional payload (PV blocks only in practice). */
    std::unique_ptr<std::array<uint8_t, kBlockBytes>> data;

    /**
     * Directory state (inclusive L2 only): the upstream client slot
     * that may hold a dirty copy, or -1.
     */
    int16_t ownerSlot = -1;

    /** Locally modified relative to the level below. */
    bool dirty = false;
    /** Held in M/E: stores may hit without an upgrade. */
    bool writable = false;

    /** Filled by a prefetch and not yet touched by demand. */
    bool wasPrefetched = false;

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

    /** Return to the empty state, releasing any payload. */
    void
    invalidate()
    {
        dirty = false;
        writable = false;
        wasPrefetched = false;
        ownerSlot = -1;
        data.reset();
    }
};

// A 64-core System holds about 262k frames. At 16 bytes, four
// frames share one 64-byte host cache line, and a frame with its
// tag and LRU stamp takes 32 bytes.
static_assert(sizeof(CacheBlk) <= 16, "CacheBlk grew past 16 bytes");

} // namespace pvsim

#endif // PVSIM_MEM_CACHE_BLK_HH
