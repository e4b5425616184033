/**
 * @file
 * Tests for per-tenant QoS in the PVProxy: entitlement arithmetic
 * (weights, floors, graceful clamping), weighted PVCache
 * partitioning, MSHR/pattern-buffer quotas, weight-0 starvation
 * without deadlock, single-tenant degradation to the pre-QoS
 * behavior bit-for-bit, runtime contract changes between warmup and
 * measurement, and the qosConfig harness entry.
 */

#include <gtest/gtest.h>

#include "core/pv_proxy.hh"
#include "core/pv_qos.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

// ---------------------------------------------------------------------
// Arbiter arithmetic
// ---------------------------------------------------------------------

namespace {

PvTenantQos
weighted(unsigned w)
{
    PvTenantQos q;
    q.weight = w;
    return q;
}

unsigned
entitlementSum(const PvQosArbiter &a, PvQosArbiter::Resource r)
{
    unsigned sum = 0;
    for (unsigned t = 0; t < a.numTenants(); ++t)
        sum += a.entitlement(t, r);
    return sum;
}

} // namespace

TEST(PvQosArbiter, DefaultContractsStayInactive)
{
    PvQosArbiter a;
    a.setCapacities(8, 4, 16);
    a.addTenant({});
    a.addTenant({});
    EXPECT_FALSE(a.active());
    // Entitlements are still well-defined (equal split).
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::PvCache), 4u);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::PvCache), 4u);
}

TEST(PvQosArbiter, WeightedEntitlementsSumToEachCapacity)
{
    PvQosArbiter a;
    a.setCapacities(8, 4, 16);
    a.addTenant(weighted(8));
    a.addTenant(weighted(1));
    EXPECT_TRUE(a.active());
    for (auto r : {PvQosArbiter::PvCache, PvQosArbiter::Mshrs,
                   PvQosArbiter::PatternBuffer})
        EXPECT_EQ(entitlementSum(a, r),
                  r == PvQosArbiter::PvCache    ? 8u
                  : r == PvQosArbiter::Mshrs    ? 4u
                                                : 16u);
    // 8:1 on tiny capacities rounds the light tenant down hard; the
    // leftovers go to the heaviest tenant.
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::PvCache), 8u);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::PvCache), 0u);
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::PatternBuffer), 15u);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::PatternBuffer), 1u);
}

TEST(PvQosArbiter, FloorsSummingPastCapacityClampGracefully)
{
    PvQosArbiter a;
    a.setCapacities(8, 4, 16);
    PvTenantQos q1, q2;
    q1.pvCacheFloor = 6;
    q2.pvCacheFloor = 6;
    a.addTenant(q1);
    a.addTenant(q2);
    // 6 + 6 > 8: scaled proportionally (6*8/12 = 4 each), never
    // rejected, and the total still sums to the capacity.
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::PvCache), 4u);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::PvCache), 4u);
    EXPECT_EQ(entitlementSum(a, PvQosArbiter::PvCache), 8u);
}

TEST(PvQosArbiter, ZeroWeightTenantOwnsOnlyItsFloors)
{
    PvQosArbiter a;
    a.setCapacities(8, 4, 16);
    a.addTenant(weighted(1));
    PvTenantQos best_effort = weighted(0);
    best_effort.mshrFloor = 1;
    a.addTenant(best_effort);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::PvCache), 0u);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::Mshrs), 1u);
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::Mshrs), 3u);
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::PvCache), 8u);
}

TEST(PvQosArbiter, AllZeroWeightsFallBackToEqualShares)
{
    PvQosArbiter a;
    a.setCapacities(8, 4, 16);
    a.addTenant(weighted(0));
    a.addTenant(weighted(0));
    EXPECT_EQ(a.entitlement(0, PvQosArbiter::PvCache), 4u);
    EXPECT_EQ(a.entitlement(1, PvQosArbiter::PvCache), 4u);
    EXPECT_EQ(entitlementSum(a, PvQosArbiter::Mshrs), 4u);
}

// ---------------------------------------------------------------------
// Proxy enforcement
// ---------------------------------------------------------------------

namespace {

/** L2 + DRAM + one proxy whose tenants carry QoS contracts. */
struct QosProxyTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 512 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;

    void
    build(SimMode mode = SimMode::Functional,
          unsigned pvcache_entries = 8)
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
        pp.pvCacheEntries = pvcache_entries;
        proxy = std::make_unique<PvProxy>(
            *ctxp, pp, amap.pvStart(0), amap.pvBytesPerCore());
        proxy->setMemSide(l2.get());
    }

    unsigned
    addTenant(const std::string &name, unsigned sets,
              const PvTenantQos &qos)
    {
        return proxy->registerEngine({name, sets, 100, qos});
    }

    /** Touch one set; returns true when the op saw a real line. */
    bool
    touch(unsigned table, unsigned set)
    {
        bool ok = false;
        proxy->access({table, set, PvReqClass::Demand,
                       fnOp([&](PvLineView v) { ok = v.bytes != nullptr; })});
        return ok;
    }
};

} // namespace

TEST_F(QosProxyTest, WeightedEvictionProtectsTheHeavyTenant)
{
    build();
    unsigned heavy = addTenant("heavy", 64, weighted(7));
    unsigned agg = addTenant("agg", 256, weighted(1));
    // Entitlements on the 8-entry PVCache: 7 vs 1.
    EXPECT_EQ(proxy->qosArbiter().entitlement(
                  heavy, PvQosArbiter::PvCache),
              7u);

    // The heavy tenant warms its 7 entitled lines...
    for (unsigned s = 0; s < 7; ++s)
        touch(heavy, s);
    // ... then the aggressor floods ten times the PVCache.
    for (unsigned s = 0; s < 80; ++s)
        touch(agg, s);
    EXPECT_LE(proxy->pvCacheOccupancy(agg), 1u)
        << "the aggressor must churn within its own entitlement";
    EXPECT_EQ(proxy->pvCacheOccupancy(heavy), 7u);

    // The heavy tenant's working set survived the flood intact.
    uint64_t misses = proxy->engineStats(heavy).misses.value();
    for (unsigned s = 0; s < 7; ++s)
        touch(heavy, s);
    EXPECT_EQ(proxy->engineStats(heavy).misses.value(), misses)
        << "all re-touches must hit";
}

TEST_F(QosProxyTest, ZeroWeightTenantIsStarvedButNotDeadlocked)
{
    build();
    addTenant("served", 64, weighted(1));
    unsigned starved = addTenant("starved", 64, weighted(0));

    // Every starved-tenant miss completes immediately as a
    // predictor miss: the callback runs with a null view.
    int null_views = 0, real_views = 0;
    for (unsigned s = 0; s < 5; ++s) {
        proxy->access({starved, s, PvReqClass::Demand,
                       fnOp([&](PvLineView v) {
            v.bytes ? ++real_views : ++null_views;
        })});
    }
    EXPECT_EQ(null_views, 5);
    EXPECT_EQ(real_views, 0);
    EXPECT_EQ(proxy->engineStats(starved).drops.value(), 5u);
    EXPECT_EQ(proxy->engineStats(starved).qosDrops.value(), 5u);
    EXPECT_EQ(proxy->pvCacheOccupancy(starved), 0u);

    // The served tenant is unaffected.
    EXPECT_TRUE(touch(0, 3));
    EXPECT_EQ(proxy->engineStats(0).drops.value(), 0u);
}

TEST_F(QosProxyTest, ZeroWeightStarvationDrainsInTimingMode)
{
    build(SimMode::Timing);
    addTenant("served", 64, weighted(1));
    unsigned starved = addTenant("starved", 64, weighted(0));

    int starved_cbs = 0, served_cbs = 0;
    for (unsigned s = 0; s < 8; ++s)
        proxy->access({starved, s, PvReqClass::Demand,
                       fnOp([&](PvLineView) { ++starved_cbs; })});
    proxy->access({0, 1, PvReqClass::Demand,
                   fnOp([&](PvLineView) { ++served_cbs; })});
    EXPECT_EQ(starved_cbs, 8)
        << "starved ops must complete (as misses) immediately";
    ctxp->events().runUntil();
    EXPECT_EQ(served_cbs, 1);
    EXPECT_TRUE(proxy->quiesced());
}

TEST_F(QosProxyTest, MshrQuotaReservesSlotsByWeight)
{
    build(SimMode::Timing);
    unsigned btb = addTenant("btb", 64, weighted(3));
    unsigned agg = addTenant("agg", 64, weighted(1));
    // 4 MSHRs split 3:1.
    EXPECT_EQ(
        proxy->qosArbiter().entitlement(agg, PvQosArbiter::Mshrs),
        1u);

    // The aggressor can hold one fetch in flight; further distinct
    // sets drop under the quota.
    for (unsigned s = 0; s < 4; ++s)
        proxy->access({agg, s, PvReqClass::Demand,
                       fnOp([](PvLineView) {})});
    EXPECT_EQ(proxy->mshrOccupancy(agg), 1u);
    EXPECT_EQ(proxy->engineStats(agg).qosDrops.value(), 3u);

    // The protected tenant still gets its three slots.
    for (unsigned s = 0; s < 3; ++s)
        proxy->access({btb, s, PvReqClass::Demand,
                       fnOp([](PvLineView) {})});
    EXPECT_EQ(proxy->mshrOccupancy(btb), 3u);
    EXPECT_EQ(proxy->engineStats(btb).qosDrops.value(), 0u);
    ctxp->events().runUntil();
    EXPECT_TRUE(proxy->quiesced());
}

TEST_F(QosProxyTest, FillLatencyIsChargedPerTenant)
{
    build(SimMode::Timing);
    unsigned t = addTenant("t", 64, weighted(2));
    proxy->access({t, 5, PvReqClass::Demand, fnOp([](PvLineView) {})});
    ctxp->events().runUntil();
    EXPECT_EQ(proxy->engineStats(t).fills.value(), 1u);
    // At least the L2 round trip elapsed between issue and fill.
    EXPECT_GE(proxy->engineStats(t).fillLatencyTicks.value(), 18u);
}

TEST_F(QosProxyTest, ContractChangeBetweenPhasesTakesEffect)
{
    build();
    unsigned a = addTenant("a", 64, {});
    unsigned b = addTenant("b", 256, {});
    EXPECT_FALSE(proxy->qosArbiter().active());

    // "Warmup": equal split, both tenants churn freely.
    for (unsigned s = 0; s < 16; ++s) {
        touch(a, s % 8);
        touch(b, s);
    }

    // "Measure" under a new contract: tenant a is promoted.
    proxy->setTenantQos(a, weighted(7));
    EXPECT_TRUE(proxy->qosArbiter().active());
    EXPECT_EQ(proxy->tenantQos(a).weight, 7u);
    EXPECT_EQ(
        proxy->qosArbiter().entitlement(a, PvQosArbiter::PvCache),
        7u);

    // Occupancy converges through normal replacement: a claims its
    // seven lines, b is squeezed to one.
    for (unsigned s = 0; s < 7; ++s)
        touch(a, s);
    for (unsigned s = 0; s < 40; ++s)
        touch(b, s);
    EXPECT_EQ(proxy->pvCacheOccupancy(a), 7u);
    EXPECT_LE(proxy->pvCacheOccupancy(b), 1u);

    uint64_t misses = proxy->engineStats(a).misses.value();
    for (unsigned s = 0; s < 7; ++s)
        touch(a, s);
    EXPECT_EQ(proxy->engineStats(a).misses.value(), misses);
}

// ---------------------------------------------------------------------
// Single-tenant degradation: QoS active, but alone — the decisions
// must match the pre-QoS proxy exactly, stat for stat.
// ---------------------------------------------------------------------

namespace {

/** Drive one proxy through a canned mixed sequence and fingerprint
 *  every observable stat. */
template <class Fn>
std::vector<uint64_t>
fingerprint(PvProxy &p, Fn &&drive)
{
    drive(p);
    return {
        p.operations.value(),      p.pvCacheHits.value(),
        p.pvCacheMisses.value(),   p.memRequests.value(),
        p.coalescedOps.value(),    p.droppedOps.value(),
        p.fairnessDrops.value(),   p.fills.value(),
        p.writebacks.value(),      p.cleanEvicts.value(),
        p.engineStats(0).operations.value(),
        p.engineStats(0).hits.value(),
        p.engineStats(0).misses.value(),
        p.engineStats(0).drops.value(),
    };
}

} // namespace

TEST_F(QosProxyTest, SingleTenantWithContractDegradesToPreQos)
{
    auto drive = [](PvProxy &p) {
        // Hits, misses, evictions (beyond the 8-entry PVCache),
        // dirty lines, and a flush — every decision point.
        for (unsigned round = 0; round < 3; ++round) {
            for (unsigned s = 0; s < 12; ++s) {
                p.access({0, s, PvReqClass::Demand,
                          fnOp([round](PvLineView v) {
                    ASSERT_NE(v.bytes, nullptr);
                    if (round == 1) {
                        v.bytes[0] = uint8_t(0x40 + round);
                        *v.dirty = true;
                    }
                })});
            }
            for (unsigned s = 0; s < 4; ++s)
                p.access({0, s, PvReqClass::Demand,
                          fnOp([](PvLineView) {})});
        }
        p.flush();
        p.access({0, 2, PvReqClass::Demand, fnOp([](PvLineView) {})});
    };

    build();
    addTenant("only", 64, {});
    ASSERT_FALSE(proxy->qosArbiter().active());
    std::vector<uint64_t> legacy = fingerprint(*proxy, drive);

    build();
    addTenant("only", 64, weighted(5));
    ASSERT_TRUE(proxy->qosArbiter().active());
    std::vector<uint64_t> qos = fingerprint(*proxy, drive);

    EXPECT_EQ(legacy, qos)
        << "a lone tenant's contract must not change any decision";
}

TEST_F(QosProxyTest, SingleTenantTimingIsBitIdenticalUnderContract)
{
    auto drive = [this](PvProxy &p) {
        for (unsigned wave = 0; wave < 4; ++wave) {
            for (unsigned s = 0; s < 6; ++s)
                p.access({0, wave * 3 + s, PvReqClass::Demand,
                          fnOp([](PvLineView) {})});
            ctxp->events().runUntil();
        }
    };

    build(SimMode::Timing);
    addTenant("only", 64, {});
    std::vector<uint64_t> legacy = fingerprint(*proxy, drive);
    Tick legacy_tick = ctxp->curTick();

    build(SimMode::Timing);
    PvTenantQos contract = weighted(3);
    contract.mshrFloor = 2;
    addTenant("only", 64, contract);
    std::vector<uint64_t> qos = fingerprint(*proxy, drive);

    EXPECT_EQ(legacy, qos);
    EXPECT_EQ(legacy_tick, ctxp->curTick())
        << "the timing must be bit-identical too";
}

// ---------------------------------------------------------------------
// Harness entry
// ---------------------------------------------------------------------

TEST(QosHarness, QosConfigBuildsAndRunsUnderContracts)
{
    // The qos sweeps' machine on one core.
    SystemConfig system;
    system.numCores = 1;
    system.btbMispredictPenalty = 8;
    system.btb.numSets = 128;
    system.pvCacheEntries = 16;
    QosSetting s;
    s.label = "4:1";
    s.btb.weight = 4;
    s.aggressor.weight = 1;
    SystemConfig cfg = qosConfig(system, QosOptions{}, s);
    EXPECT_EQ(cfg.btb.mode, BtbMode::Virtualized);
    EXPECT_EQ(cfg.btb.qos.weight, 4u);
    ASSERT_EQ(cfg.virtEngines.size(), 1u);
    EXPECT_EQ(cfg.virtEngines[0].qos.weight, 1u);

    System sys(cfg);
    ASSERT_NE(sys.virtBtb(0), nullptr);
    ASSERT_NE(sys.virtAgt(0), nullptr);
    EXPECT_EQ(sys.virtBtb(0)->qos().weight, 4u);
    EXPECT_TRUE(sys.pvProxy(0)->qosArbiter().active());
    Tick finish = sys.runTiming(2000);
    EXPECT_GT(finish, 0u);
    EXPECT_TRUE(sys.quiesced());
    // Both tenants saw traffic; the aggressor absorbed drops
    // rather than stalls.
    EXPECT_GT(sys.virtBtb(0)->engineStats().operations.value(), 0u);
    EXPECT_GT(sys.virtAgt(0)->engineStats().operations.value(), 0u);
}

TEST(QosHarness, PresetSettingsStartWithTheEqualBaseline)
{
    std::vector<QosSetting> s = presetQosSettings();
    ASSERT_GE(s.size(), 4u);
    EXPECT_EQ(s[0].label, "equal");
    EXPECT_TRUE(s[0].btb.isDefault());
    EXPECT_TRUE(s[0].aggressor.isDefault());
    for (size_t i = 1; i < s.size(); ++i)
        EXPECT_FALSE(s[i].btb.isDefault() &&
                     s[i].aggressor.isDefault())
            << "non-baseline settings must engage the arbiter";
}
