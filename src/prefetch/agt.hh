/**
 * @file
 * Active Generation Table (paper Section 3.1): tracks spatial
 * pattern construction for regions with an in-flight generation.
 * Split into a filter table (regions with exactly one access so far;
 * filters one-off touches out of the PHT) and an accumulation table
 * (regions with two or more distinct blocks touched). Each table
 * keeps its entries' region tags in an array of their own, which
 * is also each entry's only validity record, so a lookup scans 8
 * bytes per entry.
 */

#ifndef PVSIM_PREFETCH_AGT_HH
#define PVSIM_PREFETCH_AGT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "prefetch/pht.hh"
#include "prefetch/region.hh"
#include "sim/types.hh"

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
    /** find()'s answer when no entry holds the region. */
    static constexpr unsigned kNone = ~0u;

    struct FilterEntry {
        Addr pc = 0;
        uint8_t offset = 0;
        uint64_t lastTouch = 0;
    };

    struct AccumEntry {
        Addr pc = 0;     ///< trigger PC
        uint8_t offset = 0; ///< trigger offset
        SpatialPattern pattern = 0;
        uint64_t lastTouch = 0;
    };

    /** Index of the first entry whose tag is region_tag, or kNone
     *  (kNoRegion finds the first empty entry). */
    static unsigned find(const std::vector<Addr> &tags,
                         Addr region_tag);
    /** Index of the least recently touched entry, ties to the
     *  lowest. */
    template <typename Entry>
    static unsigned lruEntry(const std::vector<Entry> &entries);
    void endGeneration(unsigned i);

    AgtParams params_;
    RegionGeometry geom_;
    GenerationSink sink_;
    /** Entry i's region, kNoRegion while entry i is empty. */
    std::vector<Addr> filterTags_;
    std::vector<FilterEntry> filter_;
    std::vector<Addr> accumTags_;
    std::vector<AccumEntry> accum_;
    uint64_t touchCounter_ = 0;
};

} // namespace pvsim

#endif // PVSIM_PREFETCH_AGT_HH
