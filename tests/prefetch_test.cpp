/**
 * @file
 * Tests for the PVCache locality prefetcher and the victim buffer
 * (ISSUE 10): the stride detector's off state is inert (depth 0
 * issues no speculative traffic and keeps the legacy stats), the
 * detector fires on sequential-set demand streams, prefetch fills
 * are counted apart from demand fills (fill-latency stats stay
 * demand-only), speculative fetches never take the last MSHR and
 * are charged against the owning tenant's QoS entitlements, the
 * victim buffer retains evicted-but-hot lines without a round trip
 * through the L2, and the system-level knobs reach every proxy.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "config/fields.hh"
#include "core/pv_proxy.hh"
#include "core/pv_qos.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

/** Single-table PVProxy in front of a real L2 + DRAM. */
struct PrefetchProxyTest : public ::testing::Test {
    static constexpr unsigned kSets = 64;

    AddrMap amap{1ull << 30, 1, 64 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;

    void
    build(unsigned prefetch_depth, unsigned victim_entries,
          unsigned pvcache_entries = 16,
          SimMode mode = SimMode::Functional)
    {
        proxy.reset();
        l2.reset();
        dram.reset();
        ctxp = std::make_unique<SimContext>(mode);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 400, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 64 * 1024;
        l2p.assoc = 8;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dram.get());

        PvProxyParams pp;
        pp.pvCacheEntries = pvcache_entries;
        pp.prefetchDepth = prefetch_depth;
        pp.victimEntries = victim_entries;
        proxy = std::make_unique<PvProxy>(*ctxp, pp, amap.pvStart(0),
                                          kSets * kBlockBytes);
        proxy->registerEngine({"table0", kSets, 0, {}});
        proxy->setMemSide(l2.get());
    }

    void
    poke(unsigned set, uint8_t value)
    {
        proxy->access({0, set, PvReqClass::Demand,
                       fnOp([value](PvLineView v) {
            ASSERT_NE(v.bytes, nullptr);
            v.bytes[0] = value;
            *v.dirty = true;
        })});
    }

    uint8_t
    peek(unsigned set)
    {
        uint8_t out = 0xEE;
        proxy->access({0, set, PvReqClass::Demand,
                       fnOp([&out](PvLineView v) {
            ASSERT_NE(v.bytes, nullptr);
            out = v.bytes[0];
        })});
        return out;
    }
};

} // namespace

// ---------------------------------------------------------------------
// Depth 0: the detector is off, and stays off.
// ---------------------------------------------------------------------

TEST_F(PrefetchProxyTest, Depth0IssuesNoSpeculativeTraffic)
{
    build(/*depth=*/0, /*victims=*/0);
    // A perfectly sequential walk — the easiest possible trigger.
    for (unsigned s = 0; s < 8; ++s)
        peek(s);
    EXPECT_EQ(proxy->prefetchFills.value(), 0u);
    EXPECT_EQ(proxy->prefetchUseful.value(), 0u);
    EXPECT_EQ(proxy->prefetchDrops.value(), 0u);
    EXPECT_EQ(proxy->victimHits.value(), 0u);
    // The legacy demand accounting is untouched: one fetch per set.
    EXPECT_EQ(proxy->pvCacheMisses.value(), 8u);
    EXPECT_EQ(proxy->fills.value(), 8u);
    EXPECT_EQ(proxy->memRequests.value(), 8u);
}

// ---------------------------------------------------------------------
// The stride detector.
// ---------------------------------------------------------------------

TEST_F(PrefetchProxyTest, SequentialWalkTriggersPrefetch)
{
    build(/*depth=*/2, /*victims=*/0);
    // Sets 0, 1, 2: the third access confirms stride 1 and fetches
    // sets 3 and 4 ahead of demand.
    peek(0);
    peek(1);
    EXPECT_EQ(proxy->prefetchFills.value(), 0u)
        << "one stride sample must not trigger";
    peek(2);
    EXPECT_EQ(proxy->prefetchFills.value(), 2u);
    // Demand fills are counted apart from the speculative ones.
    EXPECT_EQ(proxy->fills.value(), 3u);
    EXPECT_EQ(proxy->pvCacheMisses.value(), 3u);

    // Demand catching up with the prefetched line: a hit, scored
    // useful, no new miss.
    uint64_t misses = proxy->pvCacheMisses.value();
    peek(3);
    EXPECT_EQ(proxy->pvCacheMisses.value(), misses);
    EXPECT_GE(proxy->prefetchUseful.value(), 1u);
    EXPECT_GE(proxy->engineStats(0).prefetchUseful.value(), 1u);
}

TEST_F(PrefetchProxyTest, StridedWalkTriggersPrefetch)
{
    build(/*depth=*/1, /*victims=*/0);
    // Stride 4: 0, 4, 8 — the repeat confirms it, set 12 is fetched.
    peek(0);
    peek(4);
    peek(8);
    EXPECT_EQ(proxy->prefetchFills.value(), 1u);
    uint64_t misses = proxy->pvCacheMisses.value();
    peek(12);
    EXPECT_EQ(proxy->pvCacheMisses.value(), misses)
        << "the strided prefetch must cover the next demand";
}

TEST_F(PrefetchProxyTest, PrefetchStopsAtTheSegmentBound)
{
    build(/*depth=*/4, /*victims=*/0);
    // Walking into the last sets: speculation must clip at kSets.
    peek(kSets - 3);
    peek(kSets - 2);
    peek(kSets - 1);
    // Only sets inside the table can be fetched — nothing beyond
    // kSets-1 exists, so at most the (already demanded) tail.
    EXPECT_EQ(proxy->prefetchFills.value(), 0u);
    EXPECT_EQ(proxy->pvCacheMisses.value(), 3u);
}

// ---------------------------------------------------------------------
// Timing mode: fill classes, MSHR priority, latency accounting.
// ---------------------------------------------------------------------

TEST_F(PrefetchProxyTest, PrefetchFillsAreNotDemandFills)
{
    build(/*depth=*/0, /*victims=*/0, 16, SimMode::Timing);
    // An explicit Prefetch-class request works at any depth (the
    // knob only gates the automatic detector).
    proxy->access({0, 9, PvReqClass::Prefetch, {}});
    ctxp->events().runUntil();
    EXPECT_EQ(proxy->prefetchFills.value(), 1u);
    EXPECT_EQ(proxy->fills.value(), 0u);
    EXPECT_EQ(proxy->engineStats(0).fillLatencyTicks.value(), 0u)
        << "fill latency is a demand-only statistic";
    EXPECT_TRUE(proxy->quiesced());

    // Demand arriving on the prefetched line: a zero-latency hit,
    // scored useful.
    bool done = false;
    proxy->access({0, 9, PvReqClass::Demand,
                   fnOp([&](PvLineView v) { done = v.bytes != nullptr; })});
    EXPECT_TRUE(done);
    EXPECT_EQ(proxy->prefetchUseful.value(), 1u);
    EXPECT_EQ(proxy->pvCacheHits.value(), 1u);
}

TEST_F(PrefetchProxyTest, PrefetchNeverTakesTheLastMshr)
{
    build(/*depth=*/0, /*victims=*/0, 16, SimMode::Timing);
    // Default 4 MSHRs: three demand misses in flight leave one
    // slot, which speculation must not claim...
    for (unsigned s = 0; s < 3; ++s)
        proxy->access({0, s, PvReqClass::Demand, fnOp([](PvLineView) {})});
    proxy->access({0, 10, PvReqClass::Prefetch, {}});
    EXPECT_EQ(proxy->prefetchDrops.value(), 1u);
    EXPECT_EQ(proxy->prefetchFills.value(), 0u);
    // ... so the next demand miss still gets it.
    int dropped = 0;
    proxy->access({0, 11, PvReqClass::Demand, fnOp([&](PvLineView v) {
        if (!v.bytes)
            ++dropped;
    })});
    EXPECT_EQ(dropped, 0);
    ctxp->events().runUntil();
    EXPECT_EQ(proxy->fills.value(), 4u);
    EXPECT_TRUE(proxy->quiesced());
}

TEST_F(PrefetchProxyTest, CoalescedDemandOnPrefetchScoresUseful)
{
    build(/*depth=*/0, /*victims=*/0, 16, SimMode::Timing);
    proxy->access({0, 7, PvReqClass::Prefetch, {}});
    // Demand for the same set while the speculative fetch is in
    // flight: coalesces onto it and proves the prefetch useful.
    int completed = 0;
    proxy->access({0, 7, PvReqClass::Demand,
                   fnOp([&](PvLineView) { ++completed; })});
    ctxp->events().runUntil();
    EXPECT_EQ(completed, 1);
    EXPECT_EQ(proxy->memRequests.value(), 1u);
    EXPECT_EQ(proxy->prefetchUseful.value(), 1u);
    EXPECT_TRUE(proxy->quiesced());
}

// ---------------------------------------------------------------------
// Victim buffer.
// ---------------------------------------------------------------------

TEST_F(PrefetchProxyTest, VictimBufferReinstatesWithoutL2Traffic)
{
    build(/*depth=*/0, /*victims=*/4, /*pvcache=*/2);
    poke(1, 0xAA);
    poke(2, 0xBB);
    poke(3, 0xCC); // evicts dirty set 1 into the victim buffer
    EXPECT_EQ(proxy->writebacks.value(), 0u)
        << "retention replaces the writeback";
    uint64_t mem = proxy->memRequests.value();

    // The evicted-but-hot line comes back from the victim buffer:
    // bytes intact, no L2 round trip.
    EXPECT_EQ(peek(1), 0xAA);
    EXPECT_EQ(proxy->victimHits.value(), 1u);
    EXPECT_EQ(proxy->engineStats(0).victimHits.value(), 1u);
    EXPECT_EQ(proxy->memRequests.value(), mem);
}

TEST_F(PrefetchProxyTest, VictimOverflowWritesBackTheColdLine)
{
    build(/*depth=*/0, /*victims=*/1, /*pvcache=*/1);
    poke(1, 0x11); // PVCache
    poke(2, 0x22); // set 1 -> victim buffer
    poke(3, 0x33); // set 2 evicts; buffer full, set 1 flushes dirty
    EXPECT_GE(proxy->writebacks.value(), 1u);
    // The flushed line is recoverable through the hierarchy.
    EXPECT_EQ(peek(1), 0x11);
}

TEST_F(PrefetchProxyTest, FlushDrainsTheVictimBuffer)
{
    build(/*depth=*/0, /*victims=*/4, /*pvcache=*/2);
    poke(1, 0x11);
    poke(2, 0x22);
    poke(3, 0x33); // dirty set 1 retained
    proxy->flush();
    EXPECT_EQ(proxy->victimOccupancy(0), 0u);
    // Every dirty line — cached or retained — reached the L2.
    EXPECT_EQ(peek(1), 0x11);
    EXPECT_EQ(peek(2), 0x22);
    EXPECT_EQ(peek(3), 0x33);
}

TEST_F(PrefetchProxyTest, OccupancyRecountsHoldInFlightAndAtRest)
{
    // checkOccupancy() panics on any mismatch between the running
    // counts and the buffers, so each call here is an assertion.
    build(/*depth=*/2, /*victims=*/2, /*pvcache=*/2, SimMode::Timing);
    int completed = 0;
    auto dirty = [&](PvLineView v) {
        if (v.bytes) {
            v.bytes[0] = 0x5a;
            *v.dirty = true;
        }
        ++completed;
    };
    // Three fetches in flight, two more ops coalesced on set 0.
    for (unsigned s : {0u, 1u, 2u, 0u, 0u})
        proxy->access({0, s, PvReqClass::Demand, fnOp(dirty)});
    EXPECT_EQ(proxy->mshrOccupancy(0), 3u);
    EXPECT_EQ(proxy->patternOccupancy(0), 5u);
    proxy->checkOccupancy();
    ctxp->events().runUntil();
    EXPECT_EQ(completed, 5);
    EXPECT_EQ(proxy->mshrOccupancy(0), 0u);
    EXPECT_EQ(proxy->patternOccupancy(0), 0u);
    EXPECT_GT(proxy->victimOccupancy(0), 0u)
        << "premise: three lines through two PVCache entries";
    proxy->checkOccupancy();
    // A walk that evicts through the victim buffer and prefetches.
    for (unsigned s = 3; s < 12; ++s) {
        proxy->access({0, s, PvReqClass::Demand, fnOp(dirty)});
        proxy->checkOccupancy();
        ctxp->events().runUntil();
        proxy->checkOccupancy();
    }
    EXPECT_GT(proxy->prefetchFills.value(), 0u);
    proxy->flush();
    ctxp->events().runUntil();
    EXPECT_EQ(proxy->pvCacheOccupancy(0), 0u);
    EXPECT_EQ(proxy->victimOccupancy(0), 0u);
    proxy->checkOccupancy();
    EXPECT_TRUE(proxy->quiesced());
}

// ---------------------------------------------------------------------
// QoS: speculation is charged to the owning tenant.
// ---------------------------------------------------------------------

namespace {

/** Multi-tenant proxy with QoS contracts (qos_test fixture). */
struct PrefetchQosTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 512 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;

    void
    build(SimMode mode, unsigned prefetch_depth = 0,
          unsigned victim_entries = 0)
    {
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
        pp.pvCacheEntries = 8;
        pp.prefetchDepth = prefetch_depth;
        pp.victimEntries = victim_entries;
        proxy = std::make_unique<PvProxy>(
            *ctxp, pp, amap.pvStart(0), amap.pvBytesPerCore());
        proxy->setMemSide(l2.get());
    }

    unsigned
    addTenant(const std::string &name, unsigned weight)
    {
        PvTenantQos q;
        q.weight = weight;
        return proxy->registerEngine({name, 64, 100, q});
    }
};

} // namespace

TEST_F(PrefetchQosTest, ZeroEntitlementTenantPrefetchesDropFirst)
{
    build(SimMode::Timing);
    unsigned served = addTenant("served", 1);
    unsigned starved = addTenant("starved", 0);

    // The starved tenant's speculation is refused outright — no
    // MSHR, no PVCache line, only a drop on its own scoreboard.
    proxy->access({starved, 3, PvReqClass::Prefetch, {}});
    EXPECT_EQ(proxy->engineStats(starved).prefetchDrops.value(), 1u);
    EXPECT_EQ(proxy->mshrOccupancy(starved), 0u);

    // The served tenant speculates freely.
    proxy->access({served, 3, PvReqClass::Prefetch, {}});
    ctxp->events().runUntil();
    EXPECT_EQ(proxy->engineStats(served).prefetchFills.value(), 1u);
    EXPECT_EQ(proxy->engineStats(served).prefetchDrops.value(), 0u);
    EXPECT_TRUE(proxy->quiesced());
}

TEST_F(PrefetchQosTest, PrefetchChargesTheTenantsMshrQuota)
{
    build(SimMode::Timing);
    unsigned btb = addTenant("btb", 3);
    unsigned agg = addTenant("agg", 1);
    // 4 MSHRs split 3:1: the aggressor's single slot is consumed by
    // its demand miss, so its speculation drops under the quota...
    proxy->access({agg, 0, PvReqClass::Demand, fnOp([](PvLineView) {})});
    proxy->access({agg, 1, PvReqClass::Prefetch, {}});
    EXPECT_EQ(proxy->engineStats(agg).prefetchDrops.value(), 1u);
    EXPECT_EQ(proxy->mshrOccupancy(agg), 1u);
    // ... while the protected tenant still speculates inside its
    // three slots.
    proxy->access({btb, 0, PvReqClass::Prefetch, {}});
    EXPECT_EQ(proxy->engineStats(btb).prefetchDrops.value(), 0u);
    ctxp->events().runUntil();
    EXPECT_EQ(proxy->engineStats(btb).prefetchFills.value(), 1u);
    EXPECT_TRUE(proxy->quiesced());
}

// ---------------------------------------------------------------------
// System level: knob plumbing.
// ---------------------------------------------------------------------

namespace {

/** The fig9 "mixed" virtualized side at an 8-cycle penalty. */
SystemConfig
mixedVirtualizedBtb()
{
    SystemConfig system;
    system.btbMispredictPenalty = 8;
    WorkloadMix mix;
    for (const WorkloadMix &m : presetMixes()) {
        if (m.name == "mixed")
            mix = m;
    }
    return fig9Config(system, mix, BtbMode::Virtualized);
}

/** mixedVirtualizedBtb() with the prefetcher engaged. */
SystemConfig
prefetchSystemConfig(unsigned depth, unsigned victims)
{
    SystemConfig cfg = mixedVirtualizedBtb();
    cfg.pvPrefetch = depth;
    cfg.victimEntries = victims;
    return cfg;
}

struct SysRun {
    Tick finish = 0;
    std::string stats;
    uint64_t prefetchFills = 0;
    uint64_t victimHits = 0;
};

SysRun
runSystem(const SystemConfig &cfg, uint64_t records)
{
    System sys(cfg);
    SysRun r;
    r.finish = sys.runTiming(records);
    std::ostringstream os;
    sys.ctx().dumpStats(os);
    r.stats = os.str();
    for (int c = 0; c < sys.numCores(); ++c) {
        if (PvProxy *p = sys.pvProxy(c)) {
            r.prefetchFills += p->prefetchFills.value();
            r.victimHits += p->victimHits.value();
        }
    }
    return r;
}

} // namespace

TEST(PrefetchSystem, KnobsReachTheProxy)
{
    SysRun on = runSystem(prefetchSystemConfig(2, 8), 4000);
    EXPECT_GT(on.prefetchFills + on.victimHits, 0u)
        << "pvPrefetch/victimEntries must plumb through to the "
           "per-core proxies";
}

TEST(PrefetchSystem, FunctionalTenantsMatchGoldenDigest)
{
    // pvbench's pv-tenants machine run functionally: three tenants
    // (SMS-PV PHT, a weight-4 virtualized BTB and a weight-1 AGT
    // aggressor) share each core's proxy with locality prefetch and
    // victim retention on. No experiment runs the functional
    // prefetch fill or victim reinstall, so this digest pins them:
    // fingerprintHex(fnv1a(dumpStats())) over the measured phase.
    SystemConfig cfg = config::parseConfig<SystemConfig>(R"({
        "num_cores": 4,
        "workload_mix": ["apache", "oracle", "qry2", "zeus"],
        "branch_profile": {"enabled": true, "bb_mean_records": 1,
            "routine_blocks": 8, "num_routines": 384,
            "call_depth": 16, "call_fraction": 0.35,
            "loop_fraction": 0.1, "loop_trip_mean": 2,
            "edge_stability": 0.93},
        "btb_mispredict_penalty": 8,
        "prefetch": "sms_virtualized",
        "pv_cache_entries": 16, "pv_prefetch": 2, "victim_entries": 8,
        "btb": {"mode": "virtualized", "num_sets": 128, "assoc": 8,
                "qos": {"weight": 4}},
        "virt_engines": [{"kind": "agt", "name": "aggressor",
            "num_sets": 512, "assoc": 4, "tag_bits": 12,
            "qos": {"weight": 1}}],
        "pv_bytes_per_core": 131072})");
    cfg.mode = SimMode::Functional;
    System sys(cfg);
    sys.runFunctional(5000);
    sys.resetStats();
    sys.runFunctional(10000);

    uint64_t prefetch_fills = 0, victim_hits = 0;
    for (int c = 0; c < sys.numCores(); ++c) {
        prefetch_fills += sys.pvProxy(c)->prefetchFills.value();
        victim_hits += sys.pvProxy(c)->victimHits.value();
    }
    EXPECT_GT(prefetch_fills, 0u);
    EXPECT_GT(victim_hits, 0u);

    std::ostringstream dump;
    sys.ctx().dumpStats(dump);
    EXPECT_EQ(config::fingerprintHex(config::fnv1a(dump.str())),
              "960d8b5e95bf4a4d");
}

TEST(PrefetchSystem, Depth0MatchesTheDefaultMachineExactly)
{
    // Explicit zeros vs untouched defaults: the same machine, so
    // the same simulation — the depth-0 proxy must not construct
    // (or tick) any prefetch machinery.
    SysRun a = runSystem(mixedVirtualizedBtb(), 3000);
    SysRun b = runSystem(prefetchSystemConfig(0, 0), 3000);
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(b.prefetchFills, 0u);
    EXPECT_EQ(b.victimHits, 0u);
}
