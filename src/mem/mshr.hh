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
#include <unordered_map>
#include <vector>

#include "mem/packet.hh"
#include "sim/types.hh"
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
    /** Waiting packets, completed in order at fill time. */
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

/** Fixed-capacity MSHR file with block-address lookup. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries) : mshrs_(entries) {}

    /** Entry tracking a given block, or nullptr. */
    Mshr *
    find(Addr block_addr)
    {
        auto it = index_.find(block_addr);
        return it == index_.end() ? nullptr : &mshrs_[it->second];
    }

    bool full() const { return used_ == mshrs_.size(); }
    unsigned used() const { return used_; }
    unsigned capacity() const { return unsigned(mshrs_.size()); }

    /** Allocate an entry for block_addr. @pre !full() && !find(). */
    Mshr &
    allocate(Addr block_addr)
    {
        pv_assert(!full(), "MSHR allocate on full file");
        pv_assert(!find(block_addr), "duplicate MSHR for block");
        for (size_t i = 0; i < mshrs_.size(); ++i) {
            if (!mshrs_[i].valid) {
                Mshr &m = mshrs_[i];
                m.reset();
                m.valid = true;
                m.blockAddr = block_addr;
                index_[block_addr] = i;
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

  private:
    std::vector<Mshr> mshrs_;
    std::unordered_map<Addr, size_t> index_;
    unsigned used_ = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_MSHR_HH
