/**
 * @file
 * Cache block (line) state. One CacheBlk per way per set; payload
 * storage is attached lazily because only PV data carries real
 * bytes through the hierarchy, and it comes from the thread-local
 * PacketPool's payload freelist, as a packet's does, so a cache
 * that installs and evicts PV lines recycles their payloads instead
 * of allocating one per install. A frame does not record whether it
 * holds PV or instruction data: the owning Cache classifies a block
 * by its address (Cache::isPv).
 */

#ifndef PVSIM_MEM_CACHE_BLK_HH
#define PVSIM_MEM_CACHE_BLK_HH

#include <cstdint>

#include "mem/packet.hh"
#include "mem/packet_pool.hh"

namespace pvsim {

/**
 * Line state of one cache frame. The owning Cache keeps the rest of
 * a frame beside it in flat arrays: the block address, which is
 * also the frame's only validity record (Cache::tags_), the LRU
 * stamp (lastTouch_) and, in a directory cache, the sharer bits
 * (sharers_).
 */
struct CacheBlk {
    /** Optional payload (PV blocks only in practice), pooled. */
    Packet::DataPtr data;

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

    /** The payload, drawn zeroed from the pool if there is none. */
    Packet::Data &
    ensureData()
    {
        if (!data)
            data.reset(PacketPool::local().allocData());
        return *data;
    }

    /** Return to the empty state, returning any payload to the
     *  pool. */
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
// tag and LRU stamp takes 32 bytes. The payload pointer's deleter
// is empty, so it costs 8 bytes like a plain pointer.
static_assert(sizeof(CacheBlk) <= 16, "CacheBlk grew past 16 bytes");

} // namespace pvsim

#endif // PVSIM_MEM_CACHE_BLK_HH
