/**
 * @file
 * Miss Status Holding Registers. Each MSHR tracks one outstanding
 * block miss and the packets (targets) waiting on the fill. Demand
 * requests coalesce onto in-flight prefetches, which is how "late"
 * prefetches still count as (partially) covering a miss.
 */

#ifndef PVSIM_MEM_MSHR_HH
#define PVSIM_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "mem/packet.hh"
#include "sim/types.hh"
#include "util/logging.hh"
#include "util/slot_table.hh"

namespace pvsim {

/** One outstanding miss. */
struct Mshr {
    bool valid = false;
    Addr blockAddr = 0;
    /** Fill must grant write permission. */
    bool needsWritable = false;
    /** Allocated by a prefetch and no demand target joined yet. */
    bool prefetchOnly = false;
    /** Was allocated by a prefetch (even if demand joined later). */
    bool wasPrefetch = false;
    /** Waiting packets, completed in order at fill time. Keeps its
     *  capacity across allocations. */
    std::vector<PacketPtr> targets;

    void
    reset()
    {
        valid = false;
        needsWritable = false;
        prefetchOnly = false;
        wasPrefetch = false;
        targets.clear();
    }
};

/**
 * Fixed-capacity MSHR file with block-address lookup.
 *
 * The index is a SlotTable keyed by block address
 * (src/util/slot_table.hh): open addressing, linear probing,
 * backward-shift deletion, at most half full, nothing allocated
 * after construction. It is not a flat scan of the entries'
 * addresses: find() runs on nearly every request to the L2 (its
 * full-budget check, missToMshr_, every fill), and on a 64-core
 * machine a scan of the L2's 64 entries ran slower than this index.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries) : mshrs_(entries), index_(entries)
    {}

    /** Entry tracking a given block, or nullptr. */
    Mshr *
    find(Addr block_addr)
    {
        const uint32_t e = index_.find(block_addr);
        return e == SlotTable::kAbsent ? nullptr : &mshrs_[e];
    }

    bool full() const { return used_ == mshrs_.size(); }
    unsigned used() const { return used_; }
    unsigned capacity() const { return unsigned(mshrs_.size()); }

    /** Allocate the lowest free entry for block_addr.
     *  @pre !full() && !find(). */
    Mshr &
    allocate(Addr block_addr)
    {
        pv_assert(!full(), "MSHR allocate on full file");
        for (size_t i = 0; i < mshrs_.size(); ++i) {
            if (!mshrs_[i].valid) {
                index_.insert(block_addr, uint32_t(i));
                Mshr &m = mshrs_[i];
                m.reset();
                m.valid = true;
                m.blockAddr = block_addr;
                ++used_;
                return m;
            }
        }
        panic("MSHR file inconsistent: full() false but no free entry");
    }

    /** Release an entry. Targets must already be drained. */
    void
    deallocate(Mshr &m)
    {
        pv_assert(m.valid, "deallocate of invalid MSHR");
        pv_assert(m.targets.empty(), "deallocate with pending targets");
        index_.erase(m.blockAddr);
        m.reset();
        --used_;
    }

    // -- Introspection (tests) ----------------------------------------

    /** Slots in the index. */
    size_t numSlots() const { return index_.numSlots(); }

    /** The slot a probe for block_addr starts at. */
    size_t homeSlot(Addr block_addr) const
    {
        return index_.homeSlot(block_addr);
    }

  private:
    std::vector<Mshr> mshrs_;
    SlotTable index_;
    unsigned used_ = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_MSHR_HH
