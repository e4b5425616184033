/**
 * @file
 * Tests for the multi-tenant PVProxy and the VirtEngine layer: one
 * proxy serving several engines with disjoint segments, per-engine
 * statistics attribution, flush draining every tenant, the fair
 * pattern-buffer drop policy, the AGT adapter, and a full System
 * running PHT + BTB (+ AGT) virtualization through one per-core
 * proxy.
 */

#include <gtest/gtest.h>

#include "core/virt_agt.hh"
#include "core/virt_btb.hh"
#include "core/virt_pht.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

/** L2 + DRAM + one shared proxy with two tenants. */
struct SharedProxyTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 512 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;
    std::unique_ptr<VirtualizedPht> pht;
    std::unique_ptr<VirtualizedBtb> btb;

    void
    build(SimMode mode = SimMode::Functional,
          unsigned pvcache_entries = 8)
    {
        pht.reset();
        btb.reset();
        proxy.reset();
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

        PvProxyParams pp;
        pp.pvCacheEntries = pvcache_entries;
        proxy = std::make_unique<PvProxy>(
            *ctxp, pp, amap.pvStart(0), amap.pvBytesPerCore());
        proxy->setMemSide(l2.get());

        pht = std::make_unique<VirtualizedPht>(*proxy, "pht", 64,
                                               10);
        btb = std::make_unique<VirtualizedBtb>(*proxy, "btb", 128,
                                               8, 16);
    }
};

} // namespace

TEST_F(SharedProxyTest, TenantsGetDistinctIdsAndDisjointSegments)
{
    build();
    EXPECT_EQ(proxy->numEngines(), 2u);
    EXPECT_EQ(pht->tableId(), 0u);
    EXPECT_EQ(btb->tableId(), 1u);

    const PvTableLayout &ps = pht->segment();
    const PvTableLayout &bs = btb->segment();
    // Segments are contiguous, ordered, and non-overlapping.
    EXPECT_EQ(ps.pvStart(), amap.pvStart(0));
    EXPECT_EQ(bs.pvStart(), ps.pvStart() + ps.tableBytes());
    for (unsigned s = 0; s < ps.numSets(); ++s)
        EXPECT_FALSE(bs.contains(ps.setAddress(s)));
    for (unsigned s = 0; s < bs.numSets(); ++s)
        EXPECT_FALSE(ps.contains(bs.setAddress(s)));
}

TEST_F(SharedProxyTest, SameSetIndexOfTwoTenantsDoesNotAlias)
{
    build();
    // Key 7 of the PHT and a branch hashing to set 7 of the BTB
    // land on set index 7 of each table; through one shared proxy
    // they must stay independent.
    pht->insert(7, 0xAAAA0001);
    btb->update(Addr(7 * 4), 0x5000); // key 7 -> set 7 of 128

    SpatialPattern p = 0;
    bool found = false;
    lookup(*pht, 7, [&](bool f, SpatialPattern pat) {
        found = f;
        p = pat;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(p, 0xAAAA0001u);

    Addr target = 0;
    lookup(*btb, Addr(7 * 4), [&](bool f, Addr t) {
        found = f;
        target = t;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(target, 0x5000u);
}

TEST_F(SharedProxyTest, StatsAreAttributedPerEngine)
{
    build();
    pht->insert(3, 0x1111);           // pht: 1 op (miss)
    lookup(*pht, 3, [](bool, SpatialPattern) {}); // pht: 1 op (hit)
    btb->update(0x4000, 0x5000);      // btb: 1 op (miss)

    PvProxy::EngineStats &ps = pht->engineStats();
    PvProxy::EngineStats &bs = btb->engineStats();
    EXPECT_EQ(ps.operations.value(), 2u);
    EXPECT_EQ(ps.misses.value(), 1u);
    EXPECT_EQ(ps.hits.value(), 1u);
    EXPECT_EQ(bs.operations.value(), 1u);
    EXPECT_EQ(bs.misses.value(), 1u);
    EXPECT_EQ(bs.hits.value(), 0u);
    // Aggregate equals the per-engine sum.
    EXPECT_EQ(proxy->operations.value(), 3u);
    EXPECT_EQ(proxy->pvCacheMisses.value(), 2u);
    EXPECT_EQ(proxy->pvCacheHits.value(), 1u);
}

TEST_F(SharedProxyTest, PerEngineStatsAppearInTheDump)
{
    build();
    pht->insert(3, 0x1111);
    btb->update(0x4000, 0x5000);
    std::ostringstream os;
    ctxp->dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("pvproxy.pht.operations"), std::string::npos);
    EXPECT_NE(out.find("pvproxy.btb.operations"), std::string::npos);
}

TEST_F(SharedProxyTest, FlushDrainsAllTenants)
{
    build();
    pht->insert(11, 0x2222);
    btb->update(0x8000, 0x9000);
    proxy->flush();
    EXPECT_EQ(proxy->writebacks.value(), 2u);
    EXPECT_EQ(pht->engineStats().writebacks.value(), 1u);
    EXPECT_EQ(btb->engineStats().writebacks.value(), 1u);

    // Both tenants' data survives the round trip through the L2.
    SpatialPattern p = 0;
    bool found = false;
    lookup(*pht, 11, [&](bool f, SpatialPattern pat) {
        found = f;
        p = pat;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(p, 0x2222u);
    Addr t = 0;
    lookup(*btb, 0x8000, [&](bool f, Addr tgt) {
        found = f;
        t = tgt;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(t, 0x9000u);
}

TEST_F(SharedProxyTest, TenantsShareThePvCacheCapacity)
{
    build(SimMode::Functional, 2); // tiny shared PVCache
    pht->insert(1, 0x1001);
    btb->update(0x4000, 0x5000); // second entry
    btb->update(0x4040, 0x5040); // different set: evicts pht line
    uint64_t misses = proxy->pvCacheMisses.value();
    lookup(*pht, 1, [](bool, SpatialPattern) {});
    EXPECT_EQ(proxy->pvCacheMisses.value(), misses + 1)
        << "the BTB's footprint must have evicted the PHT line";
}

TEST_F(SharedProxyTest, FairShareReservesPatternBufferSlots)
{
    build(SimMode::Timing);
    // A two-tenant proxy with plenty of MSHRs but a tiny pattern
    // buffer: one tenant may hold at most patternBuffer-1 pending
    // ops; the reserved slot keeps the other tenant serviceable.
    PvProxyParams pp;
    pp.name = "fair";
    pp.mshrs = 16;
    pp.patternBufferEntries = 4;
    PvProxy fair(*ctxp, pp, amap.pvStart(0), amap.pvBytesPerCore());
    fair.setMemSide(l2.get());
    VirtualizedPht fpht(fair, "pht", 64, 10);
    VirtualizedBtb fbtb(fair, "btb", 128, 8, 16);

    for (unsigned s = 0; s < 4; ++s)
        lookup(fpht, PhtKey(s), [](bool, SpatialPattern) {});
    EXPECT_EQ(fair.fairnessDrops.value(), 1u)
        << "the 4th PHT op must be dropped for the BTB's slot";
    EXPECT_EQ(fpht.engineStats().drops.value(), 1u);

    // The BTB can still get an op in despite the PHT flood.
    bool btb_done = false;
    lookup(fbtb, 0x4000, [&](bool, Addr) { btb_done = true; });
    EXPECT_EQ(fbtb.engineStats().drops.value(), 0u)
        << "the BTB op must be accepted, not dropped";
    ctxp->events().runUntil();
    EXPECT_TRUE(btb_done);
    EXPECT_TRUE(fair.quiesced());
}

TEST_F(SharedProxyTest, FairShareReservesAnMshrForEachTenant)
{
    build(SimMode::Timing);
    // Default 4 MSHRs, two tenants: the PHT may hold only 3 fetches
    // in flight; the 4th distinct set is a fairness drop and the
    // BTB's own fetch still finds an MSHR.
    for (unsigned s = 0; s < 4; ++s)
        lookup(*pht, PhtKey(s), [](bool, SpatialPattern) {});
    EXPECT_EQ(proxy->fairnessDrops.value(), 1u);

    bool btb_done = false;
    lookup(*btb, 0x4000, [&](bool, Addr) { btb_done = true; });
    EXPECT_EQ(btb->engineStats().drops.value(), 0u)
        << "the reserved MSHR must serve the BTB";
    ctxp->events().runUntil();
    EXPECT_TRUE(btb_done);
    EXPECT_TRUE(proxy->quiesced());
}

TEST_F(SharedProxyTest, DuplicateTenantNamesAreRejected)
{
    build();
    EXPECT_DEATH(proxy->registerEngine({"pht", 16, 100, {}}),
                 "duplicate tenant name");
}

TEST_F(SharedProxyTest, RegionOvercommitIsRejected)
{
    build();
    // 512 KB region, 64 + 128 lines used; a tenant needing more
    // than the remaining lines must be refused at registration.
    unsigned free_lines =
        unsigned(proxy->region().bytesFree() / kBlockBytes);
    EXPECT_DEATH(proxy->registerEngine(
                     {"huge", free_lines + 1, 100, {}}),
                 "overcommitted");
}

// ---------------------------------------------------------------------
// Full system: PHT + BTB through one per-core proxy
// ---------------------------------------------------------------------

namespace {

SystemConfig
multiTenantConfig(const std::string &workload)
{
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.numCores = 2;
    cfg.prefetch = PrefetchMode::SmsVirtualized;
    cfg.phtGeometry = {1024, 11};
    VirtEngineConfig btb;
    btb.kind = VirtEngineKind::Btb;
    btb.numSets = 2048;
    cfg.virtEngines.push_back(btb);
    cfg.pvBytesPerCore = 256 * 1024; // 64K PHT + 128K BTB segments
    return cfg;
}

} // namespace

TEST(SystemMultiTenant, PhtAndBtbShareOnePerCoreProxy)
{
    System sys(multiTenantConfig("apache"));
    sys.runFunctional(40000);

    for (int c = 0; c < sys.numCores(); ++c) {
        ASSERT_NE(sys.pvProxy(c), nullptr);
        ASSERT_NE(sys.virtPht(c), nullptr);
        ASSERT_NE(sys.virtBtb(c), nullptr);
        // Both engines are tenants of the same proxy object.
        EXPECT_EQ(&sys.virtPht(c)->proxy(), sys.pvProxy(c));
        EXPECT_EQ(&sys.virtBtb(c)->proxy(), sys.pvProxy(c));
        EXPECT_EQ(sys.pvProxy(c)->numEngines(), 2u);
        // Both tenants saw traffic, attributed separately.
        EXPECT_GT(sys.virtPht(c)->engineStats().operations.value(),
                  0u);
        EXPECT_GT(sys.virtBtb(c)->engineStats().operations.value(),
                  0u);
        // The core reconstructed and predicted taken branches.
        EXPECT_GT(sys.core(c).takenBranches.value(), 0u);
        EXPECT_GT(sys.core(c).btbHits.value(), 0u);
    }
}

TEST(SystemMultiTenant, TimingModeRunsAndDrains)
{
    SystemConfig cfg = multiTenantConfig("db2");
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    Tick finish = sys.runTiming(8000);
    EXPECT_GT(finish, 0u);
    EXPECT_TRUE(sys.quiesced());
    for (int c = 0; c < sys.numCores(); ++c) {
        EXPECT_GT(sys.virtPht(c)->engineStats().operations.value(),
                  0u);
        EXPECT_GT(sys.virtBtb(c)->engineStats().operations.value(),
                  0u);
    }
}

TEST(SystemMultiTenant, BtbVirtualizationCoexistsWithCoverage)
{
    // Adding a BTB tenant must not break the PHT's prefetching.
    SystemConfig pv_only;
    pv_only.workload = "qry17";
    pv_only.numCores = 2;
    pv_only.prefetch = PrefetchMode::SmsVirtualized;

    System a(pv_only);
    a.runFunctional(60000);
    System b(multiTenantConfig("qry17"));
    b.runFunctional(60000);

    CoverageMetrics ca = coverageOf(a);
    CoverageMetrics cb = coverageOf(b);
    EXPECT_NEAR(ca.coveredPct(), cb.coveredPct(), 5.0);
}

TEST(SystemMultiTenant, EngineAccessorFindsTenantsByName)
{
    System sys(multiTenantConfig("apache"));
    EXPECT_NE(sys.engine(0, "pht"), nullptr);
    EXPECT_NE(sys.engine(0, "btb"), nullptr);
    EXPECT_EQ(sys.engine(0, "nope"), nullptr);
    EXPECT_EQ(sys.engine(0, "pht")->kindName(), "pht");
    EXPECT_EQ(sys.engine(0, "btb")->kindName(), "btb");
}

// ---------------------------------------------------------------------
// Virtualized AGT
// ---------------------------------------------------------------------

namespace {

/** Standalone functional proxy + AGT tenant. */
struct AgtTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 512 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;
    std::unique_ptr<VirtualizedAgt> agt;

    void
    build(unsigned block_budget)
    {
        ctxp = std::make_unique<SimContext>(SimMode::Functional);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 400, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 1024 * 1024;
        l2p.assoc = 8;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dram.get());

        PvProxyParams pp;
        pp.pvCacheEntries = 8;
        proxy = std::make_unique<PvProxy>(
            *ctxp, pp, amap.pvStart(0), amap.pvBytesPerCore());
        proxy->setMemSide(l2.get());

        VirtAgtParams ap;
        ap.blockBudget = block_budget;
        agt = std::make_unique<VirtualizedAgt>(*proxy, "agt", ap);
    }
};

} // namespace

TEST_F(AgtTest, AccumulatesPatternsAndEmitsAtTheBlockBudget)
{
    build(4);
    std::vector<std::pair<PhtKey, SpatialPattern>> emitted;
    agt->setSink([&](PhtKey key, SpatialPattern pattern) {
        emitted.emplace_back(key, pattern);
    });

    const Addr pc = 0x4001c8;
    const Addr region = 0x10000000; // 2 KB aligned
    const unsigned offsets[] = {3, 5, 9, 3, 5};
    for (unsigned off : offsets)
        agt->observe(pc, region + Addr(off) * kBlockBytes);

    // Three distinct blocks (repeats don't count): in flight.
    EXPECT_TRUE(emitted.empty());
    EXPECT_EQ(agt->patternFor(region),
              (SpatialPattern(1) << 3) | (SpatialPattern(1) << 5) |
                  (SpatialPattern(1) << 9));
    EXPECT_EQ(agt->generationsStarted, 1u);

    // A fourth distinct block reaches the budget: the generation
    // completes with the trigger's key and the region restarts on
    // the new access.
    agt->observe(pc, region + Addr(12) * kBlockBytes);
    ASSERT_EQ(emitted.size(), 1u);
    PhtKey expected = makePhtKey(pc, 3); // trigger offset was 3
    EXPECT_EQ(emitted[0].first, expected);
    EXPECT_EQ(emitted[0].second,
              (SpatialPattern(1) << 3) | (SpatialPattern(1) << 5) |
                  (SpatialPattern(1) << 9) |
                  (SpatialPattern(1) << 12));
    EXPECT_EQ(agt->generationsEnded, 1u);
    EXPECT_EQ(agt->generationsStarted, 2u);
    EXPECT_EQ(agt->patternFor(region), SpatialPattern(1) << 12)
        << "the region restarts as a one-block generation";
}

TEST_F(AgtTest, ObserveIsReadModifyWriteTrafficOnTheProxy)
{
    build(8);
    const Addr pc = 0x400100;
    for (int i = 0; i < 64; ++i) {
        agt->observe(pc, 0x20000000 + Addr(i % 8) * kBlockBytes +
                             Addr(i / 8) * 0x800);
    }
    // Every observe is one mutate against the tenant's segment.
    EXPECT_EQ(agt->engineStats().operations.value(), 64u);
    EXPECT_GT(agt->generationsStarted, 0u);
    EXPECT_EQ(agt->kindName(), "agt");
}

TEST(SystemMultiTenant, AgtTenantIsDrivenByTheCore)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.workload = "apache";
    cfg.prefetch = PrefetchMode::SmsVirtualized;
    VirtEngineConfig agt;
    agt.kind = VirtEngineKind::Agt;
    agt.numSets = 32;
    agt.assoc = 4;
    agt.tagBits = 12;
    cfg.virtEngines.push_back(agt);
    cfg.pvBytesPerCore = 512 * 1024;

    System sys(cfg);
    sys.runFunctional(40000);
    for (int c = 0; c < sys.numCores(); ++c) {
        VirtualizedAgt *a = sys.virtAgt(c);
        ASSERT_NE(a, nullptr);
        EXPECT_EQ(sys.engine(c, "agt"), a);
        EXPECT_GT(a->engineStats().operations.value(), 0u)
            << "the core must observe through the AGT tenant";
        EXPECT_GT(a->generationsStarted, 0u);
        EXPECT_GT(a->generationsEnded, 0u)
            << "dense apache generations must complete";
    }
}
