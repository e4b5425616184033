/**
 * @file
 * Active Generation Table (paper Section 3.1): tracks spatial
 * pattern construction for regions with an in-flight generation.
 * Split into a filter table (regions with exactly one access so far;
 * filters one-off touches out of the PHT) and an accumulation table
 * (regions with two or more distinct blocks touched).
 *
 * In hardware each lookup is one associative match over the tags.
 * Here every operation but flush() takes constant time: a region
 * sits in at most one of the two tables, so one SlotTable maps a
 * region tag to its entry, and each table keeps its free entries in
 * a bit mask (the lowest free entry fills first) and its entries in
 * use in a recency list (the head is the capacity victim). These
 * stand in for the associative match and the LRU stamps; they are
 * not modelled storage (storageBits()).
 */

#ifndef PVSIM_PREFETCH_AGT_HH
#define PVSIM_PREFETCH_AGT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "prefetch/pht.hh"
#include "prefetch/region.hh"
#include "sim/types.hh"
#include "util/slot_table.hh"

namespace pvsim {

/** AGT configuration (paper Section 4.1 tuned values). */
struct AgtParams {
    unsigned filterEntries = 32;
    unsigned accumEntries = 64;
};

/**
 * The AGT proper. The owner feeds it demand accesses and
 * eviction/invalidation events; completed generations are emitted
 * through a callback as (key, pattern) pairs ready for PHT insertion.
 */
class ActiveGenerationTable
{
  public:
    /** Fired when a generation ends with >= 2 accessed blocks. */
    using GenerationSink =
        std::function<void(PhtKey key, SpatialPattern pattern)>;

    ActiveGenerationTable(const AgtParams &params,
                          const RegionGeometry &geom,
                          GenerationSink sink);

    /**
     * Record a demand access.
     * @return true if this access *triggered* a new generation (the
     *         caller should consult the PHT for a prediction).
     */
    bool recordAccess(Addr pc, Addr addr);

    /**
     * A block left the L1 (replacement or invalidation). Ends the
     * generation of its region if that block was accessed during
     * the generation (paper Section 3.1).
     */
    void blockRemoved(Addr addr);

    /** Flush all active generations into the PHT (end of run). */
    void flush();

    /** Active region count (tests). */
    unsigned activeFilterEntries() const;
    unsigned activeAccumEntries() const;

    /** True if the region containing addr has an active generation. */
    bool isActive(Addr addr) const;

    /** Accumulated pattern so far for addr's region (0 if inactive). */
    SpatialPattern patternFor(Addr addr) const;

    /**
     * Dedicated storage in bits, for the Section 4.6 style
     * accounting ("the AGT needs less than one kilobyte").
     */
    uint64_t storageBits(unsigned region_tag_bits = 26) const;

    // Statistics (read by the SMS wrapper).
    uint64_t generationsEnded = 0;
    uint64_t generationsFiltered = 0; ///< died with a single access
    uint64_t accumEvictions = 0;      ///< capacity-ended generations
    uint64_t filterEvictions = 0;

  private:
    /** Region tag of an empty entry: no address has this region. */
    static constexpr Addr kNoRegion = ~Addr(0);
    /** Marks a filter entry's index value; accumulation entries are
     *  stored as their plain number. */
    static constexpr uint32_t kFilterBit = uint32_t(1) << 31;

    struct FilterEntry {
        Addr tag = kNoRegion; ///< the region, kNoRegion while empty
        Addr pc = 0;
        uint8_t offset = 0;
    };

    struct AccumEntry {
        Addr tag = kNoRegion; ///< the region, kNoRegion while empty
        Addr pc = 0;          ///< trigger PC
        uint8_t offset = 0;   ///< trigger offset
        SpatialPattern pattern = 0;
    };

    /**
     * Which entries of one table hold a region. The free mask is a
     * two-level bitmap: bit i of free_ marks entry i free, and bit w
     * of nonEmpty_ marks word w of free_ non-zero, so finding the
     * lowest free entry reads one summary word per 4,096 entries
     * (one at any realistic size). The recency list links the
     * entries in use from least to most recently touched. Every
     * other operation is constant time.
     */
    class Occupancy
    {
      public:
        explicit Occupancy(unsigned entries);

        unsigned used() const { return used_; }
        bool full() const { return used_ == sentinel(); }
        /** The lowest free entry. @pre !full(). */
        unsigned lowestFree() const;
        /** The least recently touched entry. @pre used() > 0. */
        unsigned lru() const { return next_[sentinel()]; }
        /** Free entry i comes into use as the most recent. */
        void fill(unsigned i);
        /** Entry i in use becomes the most recent. */
        void touch(unsigned i);
        /** Entry i in use becomes free. */
        void release(unsigned i);

      private:
        /** The list's head and tail node, after the entries. */
        unsigned sentinel() const { return unsigned(next_.size() - 1); }
        void unlink(unsigned i);
        void append(unsigned i);

        std::vector<uint64_t> free_;
        std::vector<uint64_t> nonEmpty_;
        std::vector<uint32_t> prev_;
        std::vector<uint32_t> next_;
        unsigned used_ = 0;
    };

    /** End accumulation entry i's generation: emit its pattern and
     *  free it. */
    void endGeneration(unsigned i);
    void releaseFilter(unsigned i);
    void releaseAccum(unsigned i);

    AgtParams params_;
    RegionGeometry geom_;
    GenerationSink sink_;
    std::vector<FilterEntry> filter_;
    std::vector<AccumEntry> accum_;
    Occupancy filterUse_;
    Occupancy accumUse_;
    /** Region tag -> accumulation entry, or filter entry | kFilterBit. */
    SlotTable index_;
};

} // namespace pvsim

#endif // PVSIM_PREFETCH_AGT_HH
