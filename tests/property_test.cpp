/**
 * @file
 * Parameterized property suites (TEST_P sweeps):
 *
 *  - CacheGeometryProperty: the cache's hit/miss behaviour matches
 *    an independent reference LRU model exactly, across geometries
 *    (including non-power-of-two set counts).
 *  - CodecGeometryProperty: pack/unpack round-trips across packing
 *    geometries.
 *  - PhtGeometryProperty: dedicated PHT retains everything while
 *    per-set occupancy fits, across geometries.
 *  - WorkloadProperty: every preset drives the full SMS+PV stack
 *    (triggers fire, generations are stored, PV traffic reaches
 *    the L2) and generates deterministically.
 *
 * Plus LruCacheProperty: random read/write traffic through a live
 * LRU cache conserves blocks (misses = evictions + valid frames).
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <tuple>

#include "core/pv_codec.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "prefetch/pht.hh"
#include "util/random.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

// ---------------------------------------------------------------------
// Cache vs reference LRU model
// ---------------------------------------------------------------------

namespace {

/** Independent, obviously-correct LRU cache model. */
class RefCache
{
  public:
    RefCache(uint64_t size_bytes, unsigned assoc)
        : numSets_(unsigned(size_bytes / (assoc * kBlockBytes))),
          assoc_(assoc), sets_(numSets_)
    {}

    /** @return true on hit; updates LRU and contents. */
    bool
    access(Addr addr)
    {
        Addr blk = blockAlign(addr);
        auto &set = sets_[blockNumber(blk) % numSets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == blk) {
                set.erase(it);
                set.push_front(blk);
                return true;
            }
        }
        set.push_front(blk);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

  private:
    unsigned numSets_;
    unsigned assoc_;
    std::vector<std::list<Addr>> sets_; // MRU at front
};

struct CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>>
{
};

} // namespace

TEST_P(CacheGeometryProperty, MatchesReferenceLruModel)
{
    auto [size_bytes, assoc] = GetParam();

    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);
    CacheParams cp;
    cp.name = "c";
    cp.sizeBytes = size_bytes;
    cp.assoc = assoc;
    Cache cache(ctx, cp, &amap);
    cache.setMemSide(&dram);

    RefCache ref(size_bytes, assoc);

    Rng rng(size_bytes ^ assoc);
    uint64_t footprint_blocks = 4 * size_bytes / kBlockBytes;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(footprint_blocks) * kBlockBytes;
        bool ref_hit = ref.access(addr);

        Packet pkt(MemCmd::ReadReq, addr, 0);
        uint64_t hits = cache.demandHits.value();
        cache.functionalAccess(pkt);
        bool cache_hit = cache.demandHits.value() == hits + 1;

        ASSERT_EQ(cache_hit, ref_hit)
            << "divergence at access " << i << " addr " << std::hex
            << addr << " (size " << std::dec << size_bytes
            << ", assoc " << assoc << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Values(
        std::make_tuple(uint64_t(1024), 1u),
        std::make_tuple(uint64_t(2048), 2u),
        std::make_tuple(uint64_t(4096), 4u),
        std::make_tuple(uint64_t(8192), 8u),
        std::make_tuple(uint64_t(64 * 1024), 4u),
        std::make_tuple(uint64_t(3 * 1024), 3u), // 16 sets, 3-way
        std::make_tuple(uint64_t(6 * 1024), 4u)  // 24 sets (non-2^n)
        ));

// ---------------------------------------------------------------------
// Codec geometries
// ---------------------------------------------------------------------

namespace {

struct CodecGeometryProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>>
{
};

} // namespace

TEST_P(CodecGeometryProperty, RoundTripsAndFitsLine)
{
    auto [ways, tag_bits, payload_bits] = GetParam();
    PvSetCodec codec(ways, tag_bits, payload_bits);
    ASSERT_LE(codec.usedBits(), kBlockBytes * 8u);

    Rng rng(ways * 1000003u + tag_bits * 101u + payload_bits);
    for (int iter = 0; iter < 100; ++iter) {
        PvSet in;
        in.numWays = ways;
        for (unsigned w = 0; w < ways; ++w) {
            in.ways[w].tag = uint32_t(rng.next() & mask(int(tag_bits)));
            in.ways[w].payload = rng.next() & mask(int(payload_bits));
        }
        uint8_t line[kBlockBytes];
        codec.encode(in, line);
        PvSet out = codec.decode(line);
        for (unsigned w = 0; w < ways; ++w) {
            ASSERT_EQ(out.ways[w].tag, in.ways[w].tag);
            ASSERT_EQ(out.ways[w].payload, in.ways[w].payload);
        }
        // Everything beyond the used bits is zero.
        BitSpan span(line, sizeof(line));
        if (codec.unusedBits() > 0) {
            unsigned check = std::min(codec.unusedBits(), 57u);
            ASSERT_EQ(span.read(codec.usedBits(), int(check)), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CodecGeometryProperty,
    ::testing::Values(std::make_tuple(11u, 11u, 32u), // paper PHT
                      std::make_tuple(8u, 16u, 46u),  // BTB
                      std::make_tuple(16u, 0u, 32u),
                      std::make_tuple(1u, 32u, 57u),
                      std::make_tuple(12u, 5u, 37u),
                      std::make_tuple(4u, 24u, 40u)));

// ---------------------------------------------------------------------
// Dedicated PHT geometries
// ---------------------------------------------------------------------

namespace {

struct PhtGeometryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

} // namespace

TEST_P(PhtGeometryProperty, RetainsAllKeysWithinCapacity)
{
    auto [sets, assoc] = GetParam();
    SetAssocPht pht({sets, assoc});
    // Insert exactly `assoc` distinct keys per set.
    for (unsigned s = 0; s < sets; ++s) {
        for (unsigned w = 0; w < assoc; ++w) {
            PhtKey key = s + w * sets;
            if (key < (1u << kPhtKeyBits))
                pht.insert(key, 0x80000000u | key);
        }
    }
    for (unsigned s = 0; s < sets; ++s) {
        for (unsigned w = 0; w < assoc; ++w) {
            PhtKey key = s + w * sets;
            if (key >= (1u << kPhtKeyBits))
                continue;
            SpatialPattern p = 0;
            bool found = false;
            lookup(pht, key, [&](bool f, SpatialPattern pat) {
                found = f;
                p = pat;
            });
            ASSERT_TRUE(found) << "sets=" << sets << " key=" << key;
            ASSERT_EQ(p, 0x80000000u | key);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PhtGeometryProperty,
    ::testing::Values(std::make_tuple(1024u, 16u),
                      std::make_tuple(1024u, 11u),
                      std::make_tuple(512u, 11u),
                      std::make_tuple(64u, 11u),
                      std::make_tuple(16u, 11u),
                      std::make_tuple(8u, 11u),
                      std::make_tuple(1u, 4u)));

// ---------------------------------------------------------------------
// Workload presets drive the full stack
// ---------------------------------------------------------------------

namespace {

struct WorkloadProperty
    : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(WorkloadProperty, DrivesSmsAndPvEndToEnd)
{
    const std::string wl = GetParam();
    SystemConfig cfg;
    cfg.workload = wl;
    cfg.numCores = 2;
    cfg.prefetch = PrefetchMode::SmsVirtualized;
    System sys(cfg);
    sys.runFunctional(40000);

    uint64_t triggers = 0, stored = 0;
    for (int c = 0; c < sys.numCores(); ++c) {
        triggers += sys.sms(c)->triggers.value();
        stored += sys.sms(c)->generationsStored.value();
        EXPECT_GT(sys.virtPht(c)->proxy().operations.value(), 0u)
            << wl << " core " << c;
    }
    EXPECT_GT(triggers, 100u) << wl;
    EXPECT_GT(stored, 10u) << wl;
    EXPECT_GT(sys.l2().requestsPv.value(), 0u) << wl;

    // Determinism: an identical system replays identical counters.
    System sys2(cfg);
    sys2.runFunctional(40000);
    EXPECT_EQ(sys.l2().requestsApp.value(),
              sys2.l2().requestsApp.value())
        << wl;
    EXPECT_EQ(sys.l2().requestsPv.value(),
              sys2.l2().requestsPv.value())
        << wl;
    EXPECT_EQ(coverageOf(sys).covered, coverageOf(sys2).covered)
        << wl;
}

INSTANTIATE_TEST_SUITE_P(Presets, WorkloadProperty,
                         ::testing::Values("apache", "zeus", "db2",
                                           "oracle", "qry1", "qry2",
                                           "qry16", "qry17"));

// ---------------------------------------------------------------------
// LRU replacement inside a live cache
// ---------------------------------------------------------------------

TEST(LruCacheProperty, RandomTrafficConservesBlocks)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);
    CacheParams cp;
    cp.name = "c";
    cp.sizeBytes = 4096;
    cp.assoc = 4;
    Cache cache(ctx, cp, &amap);
    cache.setMemSide(&dram);

    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        Packet pkt(rng.chance(0.3) ? MemCmd::WriteReq
                                   : MemCmd::ReadReq,
                   rng.below(1024) * kBlockBytes, 0);
        cache.functionalAccess(pkt);
    }
    EXPECT_EQ(cache.demandAccesses.value(), 5000u);
    EXPECT_EQ(cache.demandHits.value() + cache.demandMisses.value(),
              5000u);
    EXPECT_LE(cache.numValidBlocks(), 4096u / kBlockBytes);
    // Conservation: every miss either filled an empty frame or
    // evicted a valid block.
    EXPECT_EQ(cache.demandMisses.value(),
              cache.evictions.value() + cache.numValidBlocks());
}
