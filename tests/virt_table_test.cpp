/**
 * @file
 * Tests for the virtualized tables: store/find round trips through a
 * real memory hierarchy, in-set replacement, the dedicated-vs-
 * virtualized PHT equivalence property, and the BTB extension.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/virt_btb.hh"
#include "core/virt_pht.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "util/random.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

/** Hierarchy fixture shared by the virtualized-table tests. */
struct VirtTableTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 256 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    /** Every proxy makeProxy() built; outlives the tests' engines. */
    std::vector<std::unique_ptr<PvProxy>> proxies;

    void
    buildHierarchy(SimMode mode = SimMode::Functional)
    {
        proxies.clear();
        l2.reset();
        dram.reset();
        ctxp = std::make_unique<SimContext>(mode);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 400, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 1024 * 1024;
        l2p.assoc = 8;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dram.get());
    }

    /** A proxy over exactly `sets` PV lines from `start`, wired to
     *  the L2, for one engine to register on. */
    PvProxy &
    makeProxy(Addr start, unsigned sets, unsigned pvcache = 8)
    {
        PvProxyParams pp;
        pp.pvCacheEntries = pvcache;
        proxies.push_back(std::make_unique<PvProxy>(
            *ctxp, pp, start, uint64_t(sets) * kBlockBytes));
        proxies.back()->setMemSide(l2.get());
        return *proxies.back();
    }

    std::unique_ptr<VirtualizedPht>
    makePht(unsigned sets = 64, unsigned assoc = 10,
            unsigned pvcache = 8)
    {
        return std::make_unique<VirtualizedPht>(
            makeProxy(amap.pvStart(0), sets, pvcache), "pht", sets,
            assoc);
    }
};

bool
probe(PatternHistoryTable &pht, PhtKey key, SpatialPattern &out)
{
    bool found = false;
    lookup(pht, key, [&](bool f, SpatialPattern p) {
        found = f;
        out = p;
    });
    return found;
}

} // namespace

TEST_F(VirtTableTest, InsertThenLookupFindsPattern)
{
    buildHierarchy();
    auto pht = makePht();
    pht->insert(0x123, 0xCAFE0003);
    SpatialPattern p = 0;
    EXPECT_TRUE(probe(*pht, 0x123, p));
    EXPECT_EQ(p, 0xCAFE0003u);
}

TEST_F(VirtTableTest, MissingKeyReportsNotFound)
{
    buildHierarchy();
    auto pht = makePht();
    SpatialPattern p = 0;
    EXPECT_FALSE(probe(*pht, 0x777, p));
}

TEST_F(VirtTableTest, UpdateInPlaceOverwrites)
{
    buildHierarchy();
    auto pht = makePht();
    pht->insert(0x50, 0x1111);
    pht->insert(0x50, 0x2222);
    SpatialPattern p = 0;
    ASSERT_TRUE(probe(*pht, 0x50, p));
    EXPECT_EQ(p, 0x2222u);
}

TEST_F(VirtTableTest, KeysInDifferentSetsDoNotConflict)
{
    buildHierarchy();
    auto pht = makePht(64, 10, 8);
    for (PhtKey k = 0; k < 64; ++k)
        pht->insert(k, 0x80000000u | k);
    SpatialPattern p = 0;
    for (PhtKey k = 0; k < 64; ++k) {
        ASSERT_TRUE(probe(*pht, k, p)) << "key " << k;
        EXPECT_EQ(p, 0x80000000u | k);
    }
}

TEST_F(VirtTableTest, SetOverflowReplacesAnEntry)
{
    buildHierarchy();
    auto pht = makePht(4, 2, 8); // 2 ways per set
    // Three keys in the same set (key % 4 == 1).
    pht->insert(1, 0xA1);
    pht->insert(5, 0xA5);
    pht->insert(9, 0xA9);
    SpatialPattern p;
    int found = probe(*pht, 1, p) + probe(*pht, 5, p) +
                probe(*pht, 9, p);
    EXPECT_EQ(found, 2) << "exactly one entry was replaced";
    EXPECT_TRUE(probe(*pht, 9, p)) << "newest entry must survive";
}

TEST_F(VirtTableTest, SurvivesPvCacheAndL2EvictionRoundTrip)
{
    buildHierarchy();
    // 1-entry PVCache: every distinct set access evicts.
    auto pht = makePht(256, 11, 1);
    std::map<PhtKey, SpatialPattern> expect;
    Rng rng(77);
    for (int i = 0; i < 600; ++i) {
        PhtKey k = PhtKey(rng.below(256 * 4));
        SpatialPattern pat = SpatialPattern(rng.next() | 1);
        pht->insert(k, pat);
        expect[k] = pat;
    }
    // Every insert survived the trip through PVCache evictions and
    // the L2 (sets with more than 11 colliding keys could replace,
    // but 1024 keys over 256 sets x 11 ways never overflow a set
    // with this draw count per set... verify anyway via bookkeeping
    // of what SHOULD be present: keys per set <= 11 here is not
    // guaranteed, so only check keys whose set saw <= 11 keys).
    std::map<unsigned, unsigned> keys_per_set;
    for (auto &[k, pat] : expect)
        keys_per_set[k % 256]++;
    SpatialPattern p;
    for (auto &[k, pat] : expect) {
        if (keys_per_set[k % 256] > 11)
            continue;
        ASSERT_TRUE(probe(*pht, k, p)) << "key " << k;
        EXPECT_EQ(p, pat) << "key " << k;
    }
}

TEST_F(VirtTableTest, EquivalenceWithDedicatedPhtWhenNoOverflow)
{
    // The paper's core claim in miniature: with the same geometry
    // and no set overflow, the virtualized PHT returns exactly what
    // the dedicated PHT returns, for an arbitrary op sequence.
    buildHierarchy();
    auto vpht = makePht(64, 10, 4);
    SetAssocPht dpht({64, 10});

    Rng rng(123);
    std::map<unsigned, std::vector<PhtKey>> set_keys;
    for (int i = 0; i < 3000; ++i) {
        PhtKey k = PhtKey(rng.below(64 * 8)); // <= 8 keys per set
        if (rng.chance(0.4)) {
            SpatialPattern pat = SpatialPattern(rng.next() | 1);
            vpht->insert(k, pat);
            dpht.insert(k, pat);
        } else {
            SpatialPattern pv = 0, pd = 0;
            bool fv = probe(*vpht, k, pv);
            bool fd = probe(dpht, k, pd);
            ASSERT_EQ(fv, fd) << "found mismatch at key " << k;
            ASSERT_EQ(pv, pd) << "pattern mismatch at key " << k;
        }
    }
}

TEST_F(VirtTableTest, TimingModeLookupCompletesAfterFetch)
{
    buildHierarchy(SimMode::Timing);
    auto pht = makePht();
    pht->insert(0x31, 0xBEEF);
    ctxp->events().runUntil();

    // Thrash the PVCache so the next lookup misses (one at a time:
    // the proxy has only 4 MSHRs and drops excess concurrent ops).
    for (unsigned s = 0; s < 16; ++s) {
        pht->proxy().access({0, (0x31u + 1 + s) % 64,
                             PvReqClass::Demand, fnOp([](PvLineView) {})});
        ctxp->events().runUntil();
    }

    bool done = false;
    SpatialPattern seen = 0;
    lookup(*pht, 0x31, [&](bool f, SpatialPattern p) {
        done = true;
        seen = f ? p : 0;
    });
    EXPECT_FALSE(done);
    ctxp->events().runUntil();
    EXPECT_TRUE(done);
    EXPECT_EQ(seen, 0xBEEFu);
}

TEST_F(VirtTableTest, StorageIsTwoOrdersBelowDedicated)
{
    buildHierarchy();
    auto vpht = makePht(1024, 11, 8);
    PhtGeometry dedicated{1024, 11};
    double ratio = double(dedicated.storageBits()) /
                   double(vpht->storageBits());
    // Paper Section 4.6: factor of 68.
    EXPECT_GT(ratio, 50.0);
    EXPECT_LT(ratio, 90.0);
    EXPECT_EQ(vpht->entryBits(), 43u);
}

TEST_F(VirtTableTest, SharedTableCrossTrainsBetweenProxies)
{
    // Paper Section 2.1: multiple cores may share one PVTable.
    // Patterns inserted through one core's proxy must be visible
    // through another core's proxy (each has a private PVCache, but
    // both map the same memory).
    buildHierarchy();
    auto pht0 = makePht();
    auto pht1 = makePht();

    pht0->insert(0x44, 0xFACE);
    // Write the update out of proxy 0's PVCache so proxy 1 can see
    // it through the hierarchy.
    pht0->proxy().flush();

    SpatialPattern p = 0;
    EXPECT_TRUE(probe(*pht1, 0x44, p))
        << "pattern trained by proxy 0 must serve proxy 1";
    EXPECT_EQ(p, 0xFACEu);
}

TEST_F(VirtTableTest, PrivateTablesStayIsolated)
{
    buildHierarchy();
    auto pht0 = makePht();
    // amap was built for one core; emulate a second private table
    // at a disjoint base inside the app range top.
    VirtualizedPht pht1(
        makeProxy(amap.pvStart(0) + 64 * kBlockBytes, 64), "pht", 64,
        10);

    pht0->insert(0x44, 0xFACE);
    pht0->proxy().flush();
    SpatialPattern p = 0;
    EXPECT_FALSE(probe(pht1, 0x44, p))
        << "private tables must not alias";
}

// ---------------------------------------------------------------------
// BTB extension
// ---------------------------------------------------------------------

TEST_F(VirtTableTest, BtbLearnsAndPredictsTargets)
{
    buildHierarchy();
    VirtualizedBtb btb(makeProxy(amap.pvStart(0), 128), "btb", 128, 8,
                       16);

    btb.update(0x40001000, 0x40002000);
    btb.update(0x40001010, 0x40003000);

    Addr target = 0;
    bool found = false;
    lookup(btb, 0x40001000, [&](bool f, Addr t) {
        found = f;
        target = t;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(target, 0x40002000u);

    lookup(btb, 0x40009999 & ~3ull, [&](bool f, Addr) { found = f; });
    EXPECT_FALSE(found);
}

TEST_F(VirtTableTest, BtbStorageIsTiny)
{
    buildHierarchy();
    // 2048 sets x 8 ways: 16K entries in memory.
    VirtualizedBtb btb(makeProxy(amap.pvStart(0), 2048), "btb", 2048,
                       8, 16);
    // A dedicated 16K-entry BTB with 62-bit entries would need
    // ~124KB; the proxy needs ~1KB.
    EXPECT_LT(btb.storageBits() / 8, 1200u);
    EXPECT_EQ(btb.tableBytes(), 2048u * 64u);
}
