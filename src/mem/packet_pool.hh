/**
 * @file
 * Freelist allocator for Packets. Timing-mode simulation (and the
 * functional eviction path) used to churn the global heap with one
 * new/delete pair per miss, writeback and clean-evict; the pool
 * recycles fixed-size Packet storage instead, constructing each
 * packet in place so live-count bookkeeping behaves exactly as with
 * plain new.
 *
 * The pool is thread-local: every System runs single-threaded, and
 * the threaded batch harness confines each System to one worker, so
 * alloc/release pairs never cross threads and no locking is needed.
 * Storage comes from (and returns to) the global operator new, which
 * keeps pooled packets interchangeable with plain `new Packet` /
 * `delete pkt` at every boundary — external clients (tests, user
 * code) may free a pooled packet with delete, and packets they
 * allocated with new may be released into the pool.
 */

#ifndef PVSIM_MEM_PACKET_POOL_HH
#define PVSIM_MEM_PACKET_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/packet.hh"

namespace pvsim {

/** Thread-local freelist of Packet-sized storage chunks. */
class PacketPool
{
  public:
    /** Freelist chunks kept across release bursts (bounds memory). */
    static constexpr size_t kMaxFree = 4096;

    PacketPool() = default;
    ~PacketPool();

    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** The calling thread's pool. */
    static PacketPool &local();

    /** Construct a packet, reusing freed storage when available. */
    PacketPtr
    alloc(MemCmd cmd, Addr addr, int core_id)
    {
        void *mem;
        if (!free_.empty()) {
            mem = free_.back();
            free_.pop_back();
        } else {
            mem = ::operator new(sizeof(Packet));
        }
        return new (mem) Packet(cmd, addr, core_id);
    }

    /** Destroy a packet and keep its storage for reuse. */
    void
    release(PacketPtr pkt)
    {
        pkt->~Packet();
        if (free_.size() < kMaxFree)
            free_.push_back(pkt);
        else
            ::operator delete(static_cast<void *>(pkt));
    }

    /**
     * Allocate a zeroed payload buffer, reusing freed storage when
     * available (Packet::ensureData's backend — the pool recycles
     * the payloads the same way it recycles the packets carrying
     * them).
     */
    Packet::Data *
    allocData()
    {
        void *mem;
        if (!freeData_.empty()) {
            mem = freeData_.back();
            freeData_.pop_back();
            ++dataReused_;
        } else {
            mem = ::operator new(sizeof(Packet::Data));
            ++dataFresh_;
        }
        auto *d = new (mem) Packet::Data;
        d->fill(0);
        return d;
    }

    /** Keep a payload buffer for reuse (Packet::DataDeleter). */
    void
    releaseData(Packet::Data *d)
    {
        std::destroy_at(d);
        if (freeData_.size() < kMaxFree)
            freeData_.push_back(d);
        else
            ::operator delete(static_cast<void *>(d));
    }

    // -- Introspection (tests) ---------------------------------------

    size_t freeDataCount() const { return freeData_.size(); }
    uint64_t reusedDataAllocs() const { return dataReused_; }
    uint64_t freshDataAllocs() const { return dataFresh_; }

  private:
    std::vector<void *> free_;
    std::vector<void *> freeData_;
    uint64_t dataReused_ = 0;
    uint64_t dataFresh_ = 0;
};

/** Allocate a packet from the calling thread's pool. */
inline PacketPtr
allocPacket(MemCmd cmd, Addr addr, int core_id)
{
    return PacketPool::local().alloc(cmd, addr, core_id);
}

/** Release a packet to the calling thread's pool. */
inline void
freePacket(PacketPtr pkt)
{
    PacketPool::local().release(pkt);
}

} // namespace pvsim

#endif // PVSIM_MEM_PACKET_POOL_HH
