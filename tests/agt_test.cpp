/**
 * @file
 * Tests for the Active Generation Table: trigger detection, filter
 * to accumulation promotion, generation endings (eviction of an
 * accessed block, capacity pressure), flushing, and the filtering of
 * single-access regions out of the PHT.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "prefetch/agt.hh"
#include "util/random.hh"

using namespace pvsim;

namespace {

struct AgtTest : public ::testing::Test {
    RegionGeometry geom{32};
    AgtParams params;
    std::vector<std::pair<PhtKey, SpatialPattern>> stored;
    std::unique_ptr<ActiveGenerationTable> agt;

    void
    build(unsigned filter = 32, unsigned accum = 64)
    {
        params.filterEntries = filter;
        params.accumEntries = accum;
        agt = std::make_unique<ActiveGenerationTable>(
            params, geom,
            [this](PhtKey k, SpatialPattern p) {
                stored.emplace_back(k, p);
            });
    }

    /** Address of block `off` in region `r`. */
    Addr
    blk(unsigned r, unsigned off) const
    {
        return Addr(r) * geom.regionBytes() + Addr(off) * kBlockBytes;
    }
};

} // namespace

TEST_F(AgtTest, FirstAccessTriggers)
{
    build();
    EXPECT_TRUE(agt->recordAccess(0x1000, blk(1, 3)));
    EXPECT_FALSE(agt->recordAccess(0x1004, blk(1, 5)));
    EXPECT_FALSE(agt->recordAccess(0x1008, blk(1, 7)));
    EXPECT_TRUE(agt->recordAccess(0x1000, blk(2, 0)))
        << "a different region triggers independently";
}

TEST_F(AgtTest, RepeatTriggerBlockAccessDoesNotPromote)
{
    build();
    agt->recordAccess(0x1000, blk(1, 3));
    agt->recordAccess(0x1000, blk(1, 3)); // same block again
    EXPECT_EQ(agt->activeFilterEntries(), 1u);
    EXPECT_EQ(agt->activeAccumEntries(), 0u);
}

TEST_F(AgtTest, SecondDistinctBlockPromotesToAccumulation)
{
    build();
    agt->recordAccess(0x1000, blk(1, 3));
    agt->recordAccess(0x1004, blk(1, 9));
    EXPECT_EQ(agt->activeFilterEntries(), 0u);
    EXPECT_EQ(agt->activeAccumEntries(), 1u);
    EXPECT_EQ(agt->patternFor(blk(1, 0)),
              (SpatialPattern(1) << 3) | (SpatialPattern(1) << 9));
}

TEST_F(AgtTest, EvictionOfAccessedBlockEndsGeneration)
{
    build();
    agt->recordAccess(0x1000, blk(1, 3));
    agt->recordAccess(0x1004, blk(1, 9));
    agt->blockRemoved(blk(1, 9));
    ASSERT_EQ(stored.size(), 1u);
    // Key is built from the trigger PC and trigger offset 3.
    EXPECT_EQ(stored[0].first, makePhtKey(0x1000, 3));
    EXPECT_EQ(stored[0].second,
              (SpatialPattern(1) << 3) | (SpatialPattern(1) << 9));
    EXPECT_FALSE(agt->isActive(blk(1, 0)));
}

TEST_F(AgtTest, EvictionOfUnaccessedBlockDoesNotEndGeneration)
{
    build();
    agt->recordAccess(0x1000, blk(1, 3));
    agt->recordAccess(0x1004, blk(1, 9));
    agt->blockRemoved(blk(1, 20)); // never touched in generation
    EXPECT_TRUE(stored.empty());
    EXPECT_TRUE(agt->isActive(blk(1, 0)));
}

TEST_F(AgtTest, SingleAccessGenerationsAreFilteredOut)
{
    build();
    agt->recordAccess(0x1000, blk(1, 3));
    agt->blockRemoved(blk(1, 3));
    EXPECT_TRUE(stored.empty())
        << "one-access generations never reach the PHT";
    EXPECT_EQ(agt->generationsFiltered, 1u);
}

TEST_F(AgtTest, AccumulationCapacityEndsLruGeneration)
{
    build(32, 2); // tiny accumulation table
    // Three concurrent two-block generations.
    for (unsigned r = 1; r <= 3; ++r) {
        agt->recordAccess(0x1000 + r * 4, blk(r, 0));
        agt->recordAccess(0x2000, blk(r, 1));
    }
    EXPECT_EQ(agt->activeAccumEntries(), 2u);
    ASSERT_EQ(stored.size(), 1u) << "LRU generation pushed to PHT";
    EXPECT_EQ(agt->accumEvictions, 1u);
    EXPECT_EQ(stored[0].first, makePhtKey(0x1004, 0));
}

TEST_F(AgtTest, FilterCapacityEvictsSilently)
{
    build(2, 64);
    agt->recordAccess(0x1, blk(1, 0));
    agt->recordAccess(0x2, blk(2, 0));
    agt->recordAccess(0x3, blk(3, 0)); // evicts region 1's filter
    EXPECT_TRUE(stored.empty());
    EXPECT_EQ(agt->filterEvictions, 1u);
    // Region 1 is inactive again: a new access re-triggers.
    EXPECT_TRUE(agt->recordAccess(0x1, blk(1, 0)));
}

TEST_F(AgtTest, FlushTransfersAccumulatedPatterns)
{
    build();
    agt->recordAccess(0xA, blk(1, 0));
    agt->recordAccess(0xB, blk(1, 4));
    agt->recordAccess(0xC, blk(2, 0)); // still in filter
    agt->flush();
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0].second,
              (SpatialPattern(1) << 0) | (SpatialPattern(1) << 4));
    EXPECT_EQ(agt->activeAccumEntries(), 0u);
    EXPECT_EQ(agt->activeFilterEntries(), 0u);
}

TEST_F(AgtTest, StorageIsUnderOneKilobyte)
{
    build(); // paper values: 32 filter + 64 accumulation entries
    // Paper Section 3.2: "the AGT needs less than one kilobyte".
    EXPECT_LT(agt->storageBits(), 8u * 1024u);
}

TEST(RegionGeometryTest, OffsetsAndBases)
{
    RegionGeometry g(32);
    EXPECT_EQ(g.regionBytes(), 2048u);
    EXPECT_EQ(g.regionBase(0x1234), 0x1000u);
    EXPECT_EQ(g.blockOffset(0x1000), 0u);
    EXPECT_EQ(g.blockOffset(0x17ff), 31u);
    EXPECT_EQ(g.blockAddr(0x1000, 5), 0x1140u);
    EXPECT_EQ(g.regionTag(0x1000), g.regionTag(0x17ff));
    EXPECT_NE(g.regionTag(0x1000), g.regionTag(0x1800));
}

TEST(RegionGeometryTest, SmallerRegionsWork)
{
    RegionGeometry g(16); // 1 KB regions
    EXPECT_EQ(g.regionBytes(), 1024u);
    EXPECT_EQ(g.blockOffset(0x3c0), 15u);
    EXPECT_EQ(g.offsetBits(), 4u);
}

// ---------------------------------------------------------------------
// Differential test against the linear-scan AGT
// ---------------------------------------------------------------------

namespace {

/**
 * The AGT as a linear scan, the reference the constant-time table
 * must match call for call: a lookup scans every region tag, a fill
 * takes the first empty entry, and a capacity eviction takes the
 * entry with the oldest touch stamp.
 */
class ScanAgt
{
  public:
    ScanAgt(const AgtParams &params, const RegionGeometry &geom,
            ActiveGenerationTable::GenerationSink sink)
        : geom_(geom), sink_(std::move(sink)),
          filterTags_(params.filterEntries, kNoRegion),
          filter_(params.filterEntries),
          accumTags_(params.accumEntries, kNoRegion),
          accum_(params.accumEntries)
    {}

    bool
    recordAccess(Addr pc, Addr addr)
    {
        Addr tag = geom_.regionTag(addr);
        unsigned offset = geom_.blockOffset(addr);

        if (unsigned a = find(accumTags_, tag); a != kNone) {
            accum_[a].pattern |= SpatialPattern(1) << offset;
            accum_[a].lastTouch = ++touchCounter_;
            return false;
        }
        if (unsigned fi = find(filterTags_, tag); fi != kNone) {
            FilterEntry &f = filter_[fi];
            if (f.offset == offset) {
                f.lastTouch = ++touchCounter_;
                return false;
            }
            unsigned slot = find(accumTags_, kNoRegion);
            if (slot == kNone) {
                slot = lruEntry(accum_);
                ++accumEvictions;
                endGeneration(slot);
            }
            AccumEntry &e = accum_[slot];
            accumTags_[slot] = tag;
            e.pc = f.pc;
            e.offset = f.offset;
            e.pattern = (SpatialPattern(1) << f.offset) |
                        (SpatialPattern(1) << offset);
            e.lastTouch = ++touchCounter_;
            filterTags_[fi] = kNoRegion;
            return false;
        }
        unsigned slot = find(filterTags_, kNoRegion);
        if (slot == kNone) {
            slot = lruEntry(filter_);
            ++filterEvictions;
            ++generationsFiltered;
        }
        FilterEntry &e = filter_[slot];
        filterTags_[slot] = tag;
        e.pc = pc;
        e.offset = uint8_t(offset);
        e.lastTouch = ++touchCounter_;
        return true;
    }

    void
    blockRemoved(Addr addr)
    {
        Addr tag = geom_.regionTag(addr);
        unsigned offset = geom_.blockOffset(addr);
        if (unsigned a = find(accumTags_, tag); a != kNone) {
            if (accum_[a].pattern & (SpatialPattern(1) << offset))
                endGeneration(a);
            return;
        }
        if (unsigned fi = find(filterTags_, tag); fi != kNone) {
            if (filter_[fi].offset == offset) {
                filterTags_[fi] = kNoRegion;
                ++generationsFiltered;
            }
        }
    }

    void
    flush()
    {
        for (unsigned i = 0; i < accum_.size(); ++i) {
            if (accumTags_[i] != kNoRegion)
                endGeneration(i);
        }
        for (Addr &t : filterTags_) {
            if (t != kNoRegion) {
                t = kNoRegion;
                ++generationsFiltered;
            }
        }
    }

    unsigned
    activeFilterEntries() const
    {
        return unsigned(filterTags_.size() -
                        std::count(filterTags_.begin(),
                                   filterTags_.end(), kNoRegion));
    }

    unsigned
    activeAccumEntries() const
    {
        return unsigned(accumTags_.size() -
                        std::count(accumTags_.begin(), accumTags_.end(),
                                   kNoRegion));
    }

    bool
    isActive(Addr addr) const
    {
        Addr tag = geom_.regionTag(addr);
        return find(accumTags_, tag) != kNone ||
               find(filterTags_, tag) != kNone;
    }

    SpatialPattern
    patternFor(Addr addr) const
    {
        Addr tag = geom_.regionTag(addr);
        if (unsigned a = find(accumTags_, tag); a != kNone)
            return accum_[a].pattern;
        if (unsigned fi = find(filterTags_, tag); fi != kNone)
            return SpatialPattern(1) << filter_[fi].offset;
        return 0;
    }

    uint64_t generationsEnded = 0;
    uint64_t generationsFiltered = 0;
    uint64_t accumEvictions = 0;
    uint64_t filterEvictions = 0;

  private:
    static constexpr Addr kNoRegion = ~Addr(0);
    static constexpr unsigned kNone = ~0u;

    struct FilterEntry {
        Addr pc = 0;
        uint8_t offset = 0;
        uint64_t lastTouch = 0;
    };

    struct AccumEntry {
        Addr pc = 0;
        uint8_t offset = 0;
        SpatialPattern pattern = 0;
        uint64_t lastTouch = 0;
    };

    static unsigned
    find(const std::vector<Addr> &tags, Addr region_tag)
    {
        for (unsigned i = 0; i < tags.size(); ++i) {
            if (tags[i] == region_tag)
                return i;
        }
        return kNone;
    }

    template <typename Entry>
    static unsigned
    lruEntry(const std::vector<Entry> &entries)
    {
        unsigned lru = 0;
        for (unsigned i = 1; i < entries.size(); ++i) {
            if (entries[i].lastTouch < entries[lru].lastTouch)
                lru = i;
        }
        return lru;
    }

    void
    endGeneration(unsigned i)
    {
        ++generationsEnded;
        const AccumEntry &e = accum_[i];
        sink_(makePhtKey(e.pc, e.offset), e.pattern);
        accumTags_[i] = kNoRegion;
    }

    RegionGeometry geom_;
    ActiveGenerationTable::GenerationSink sink_;
    std::vector<Addr> filterTags_;
    std::vector<FilterEntry> filter_;
    std::vector<Addr> accumTags_;
    std::vector<AccumEntry> accum_;
    uint64_t touchCounter_ = 0;
};

/** One random stream's shape. */
struct DiffCase {
    unsigned filter;
    unsigned accum;
    /** Distinct regions the stream draws from. */
    unsigned regions;
    unsigned ops;
    /** Flushes per 100,000 calls. */
    unsigned flushRate = 400;
};

/**
 * One table and what its sink saw. The sink may call blockRemoved
 * on its own table, as a virtualized PHT's fill does in functional
 * mode when it invalidates an L1D block. Each side draws those
 * nested calls from its own generator, seeded alike, so the two
 * sides make the same nested calls for as long as their sinks see
 * the same sequence.
 */
template <typename Agt>
struct DiffSide {
    RegionGeometry geom{32};
    std::vector<std::pair<PhtKey, SpatialPattern>> emitted;
    Rng nested{77};
    /** The current call's region: a nested call removes one of its
     *  blocks half of the time. */
    unsigned region = 0;
    unsigned regions;
    bool inSink = false;
    Agt agt;

    explicit DiffSide(const DiffCase &c)
        : regions(c.regions),
          agt(AgtParams{c.filter, c.accum}, geom,
              [this](PhtKey k, SpatialPattern p) { sink(k, p); })
    {}
    // The table's sink holds this side's address.
    DiffSide(const DiffSide &) = delete;
    DiffSide &operator=(const DiffSide &) = delete;

    void
    sink(PhtKey k, SpatialPattern p)
    {
        emitted.emplace_back(k, p);
        if (inSink || nested.below(4) != 0)
            return;
        const unsigned r = nested.below(2) == 0
                               ? region
                               : unsigned(nested.below(regions));
        inSink = true;
        agt.blockRemoved(addrOf(r, unsigned(nested.below(8))));
        inSink = false;
    }

    Addr
    addrOf(unsigned r, unsigned off) const
    {
        return Addr(r + 1) * geom.regionBytes() +
               Addr(off) * kBlockBytes;
    }
};

void
runDifferential(const DiffCase &c)
{
    SCOPED_TRACE("filter " + std::to_string(c.filter) + ", accum " +
                 std::to_string(c.accum));
    DiffSide<ActiveGenerationTable> fast(c);
    DiffSide<ScanAgt> ref(c);
    Rng rng(c.filter * 1000003ull + c.accum);
    size_t checked = 0;
    unsigned max_filter = 0, max_accum = 0, flushes = 0;

    for (unsigned op = 0; op < c.ops; ++op) {
        const unsigned r = unsigned(rng.below(c.regions));
        const uint64_t kind = rng.below(100000);
        fast.region = ref.region = r;
        std::string what;
        if (kind < c.flushRate) {
            what = "flush";
            fast.agt.flush();
            ref.agt.flush();
            ++flushes;
        } else if (kind < 62000) {
            // Accesses touch blocks 0-7 of a region, so trigger
            // blocks repeat and patterns accumulate.
            const Addr pc = 0x400 + 4 * rng.below(8);
            const Addr a = fast.addrOf(r, unsigned(rng.below(8)));
            what = "recordAccess";
            ASSERT_EQ(fast.agt.recordAccess(pc, a),
                      ref.agt.recordAccess(pc, a))
                << "op " << op;
        } else {
            // Blocks 8-15 are never accessed: their removal must
            // leave a generation running.
            const Addr a = fast.addrOf(r, unsigned(rng.below(16)));
            what = "blockRemoved";
            fast.agt.blockRemoved(a);
            ref.agt.blockRemoved(a);
        }
        SCOPED_TRACE("op " + std::to_string(op) + ": " + what);

        ASSERT_EQ(fast.emitted.size(), ref.emitted.size());
        for (; checked < ref.emitted.size(); ++checked) {
            ASSERT_EQ(fast.emitted[checked], ref.emitted[checked])
                << "generation " << checked;
        }
        ASSERT_EQ(fast.agt.generationsEnded, ref.agt.generationsEnded);
        ASSERT_EQ(fast.agt.generationsFiltered,
                  ref.agt.generationsFiltered);
        ASSERT_EQ(fast.agt.accumEvictions, ref.agt.accumEvictions);
        ASSERT_EQ(fast.agt.filterEvictions, ref.agt.filterEvictions);
        ASSERT_EQ(fast.agt.activeFilterEntries(),
                  ref.agt.activeFilterEntries());
        ASSERT_EQ(fast.agt.activeAccumEntries(),
                  ref.agt.activeAccumEntries());
        const Addr touched = fast.addrOf(r, 0);
        ASSERT_EQ(fast.agt.isActive(touched), ref.agt.isActive(touched));
        ASSERT_EQ(fast.agt.patternFor(touched),
                  ref.agt.patternFor(touched));
        max_filter = std::max(max_filter, ref.agt.activeFilterEntries());
        max_accum = std::max(max_accum, ref.agt.activeAccumEntries());
    }
    // Premises: both tables filled and evicted, and flushes emitted
    // generations from a table with several entries active.
    EXPECT_EQ(max_filter, c.filter);
    EXPECT_EQ(max_accum, c.accum);
    EXPECT_GT(ref.agt.filterEvictions, 0u);
    EXPECT_GT(ref.agt.accumEvictions, 0u);
    EXPECT_GT(flushes, 2u);
}

} // namespace

TEST(AgtDifferentialTest, MatchesTheLinearScanAtThePapersSizes)
{
    runDifferential({32, 64, 160, 40000});
}

TEST(AgtDifferentialTest, MatchesTheLinearScanWhenTinyTablesFill)
{
    runDifferential({3, 2, 8, 20000});
    runDifferential({1, 1, 4, 20000});
}

TEST(AgtDifferentialTest, MatchesTheLinearScanPastOneMaskWord)
{
    runDifferential({100, 130, 320, 60000});
    // Past one summary word: the lowest free filter entry is found
    // beyond the first 4,096.
    runDifferential({4100, 2, 16000, 30000, 10});
}
