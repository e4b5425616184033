/**
 * @file
 * Miss Status Holding Registers. Each MSHR tracks one outstanding
 * block miss and the packets (targets) waiting on the fill. Demand
 * requests coalesce onto in-flight prefetches, which is how "late"
 * prefetches still count as (partially) covering a miss.
 */

#ifndef PVSIM_MEM_MSHR_HH
#define PVSIM_MEM_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/packet.hh"
#include "sim/types.hh"
#include "util/intmath.hh"
#include "util/logging.hh"

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
 * The index is an open-addressed table of slots keyed by block
 * address: a power of two at least twice the entry count, so at
 * most half full, with linear probing from a multiplicative hash
 * and backward-shift deletion (a deleted slot is refilled from
 * later in its probe run, so no tombstones build up and a probe
 * stops at the first empty slot). It allocates nothing after
 * construction. It is not a flat scan of the entries' addresses:
 * find() runs on nearly every request to the L2 (its full-budget
 * check, missToMshr_, every fill), and on a 64-core machine a scan
 * of the L2's 64 entries ran slower than this index.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries)
        : mshrs_(entries),
          slots_(size_t(1) << ceilLog2(2 * std::max(entries, 1u))),
          shift_(64 - unsigned(ceilLog2(slots_.size())))
    {}

    /** Entry tracking a given block, or nullptr. */
    Mshr *
    find(Addr block_addr)
    {
        for (size_t s = homeSlot(block_addr);; s = next(s)) {
            const Slot &slot = slots_[s];
            if (slot.key == block_addr)
                return &mshrs_[slot.entry];
            if (slot.key == kEmpty)
                return nullptr;
        }
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
        pv_assert(block_addr != kEmpty, "MSHR for the empty key");
        size_t s = homeSlot(block_addr);
        for (; slots_[s].key != kEmpty; s = next(s))
            pv_assert(slots_[s].key != block_addr,
                      "duplicate MSHR for block");
        for (size_t i = 0; i < mshrs_.size(); ++i) {
            if (!mshrs_[i].valid) {
                Mshr &m = mshrs_[i];
                m.reset();
                m.valid = true;
                m.blockAddr = block_addr;
                slots_[s] = {block_addr, uint32_t(i)};
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
        size_t hole = homeSlot(m.blockAddr);
        while (slots_[hole].key != m.blockAddr)
            hole = next(hole);
        // Backward shift: pull each later key of the run whose home
        // does not lie cyclically in (hole, s] back into the hole.
        for (size_t s = next(hole); slots_[s].key != kEmpty;
             s = next(s)) {
            const size_t home = homeSlot(slots_[s].key);
            if (((s - home) & mask()) >= ((s - hole) & mask())) {
                slots_[hole] = slots_[s];
                hole = s;
            }
        }
        slots_[hole].key = kEmpty;
        m.reset();
        --used_;
    }

    // -- Introspection (tests) ----------------------------------------

    /** Slots in the index. */
    size_t numSlots() const { return slots_.size(); }

    /** The slot a probe for block_addr starts at. */
    size_t
    homeSlot(Addr block_addr) const
    {
        return size_t((block_addr * 0x9e3779b97f4a7c15ull) >> shift_);
    }

  private:
    /** Never a block-aligned address. */
    static constexpr Addr kEmpty = ~Addr(0);

    struct Slot {
        Addr key = kEmpty;
        uint32_t entry = 0;
    };

    size_t mask() const { return slots_.size() - 1; }
    size_t next(size_t s) const { return (s + 1) & mask(); }

    std::vector<Mshr> mshrs_;
    std::vector<Slot> slots_;
    unsigned shift_;
    unsigned used_ = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_MSHR_HH
