/**
 * @file
 * Integration tests over the fully wired system: functional and
 * timing modes, prefetcher effect, PV vs dedicated equivalence at
 * the system level, inclusion and conservation invariants, and
 * packet leak-freedom.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/system.hh"

using namespace pvsim;

namespace {

SystemConfig
smallConfig(const std::string &workload, PrefetchMode mode)
{
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.prefetch = mode;
    cfg.numCores = 2; // keep tests quick
    return cfg;
}

} // namespace

TEST(SystemFunctional, BaselineRunsAndCountsInstructions)
{
    System sys(smallConfig("qry2", PrefetchMode::None));
    sys.runFunctional(20000);
    EXPECT_EQ(sys.core(0).recordsConsumed(), 20000u);
    EXPECT_EQ(sys.core(1).recordsConsumed(), 20000u);
    EXPECT_GT(sys.totalInstructions(), 2u * 20000u);
    // Loads+stores equal records.
    for (int c = 0; c < sys.numCores(); ++c) {
        EXPECT_EQ(sys.core(c).loads.value() +
                      sys.core(c).stores.value(),
                  20000u);
    }
}

TEST(SystemFunctional, CacheAccessConservation)
{
    System sys(smallConfig("apache", PrefetchMode::None));
    sys.runFunctional(30000);
    for (int c = 0; c < sys.numCores(); ++c) {
        Cache &l1d = sys.l1d(c);
        EXPECT_EQ(l1d.demandAccesses.value(),
                  l1d.demandHits.value() + l1d.demandMisses.value());
        EXPECT_EQ(l1d.readAccesses.value(),
                  l1d.readHits.value() + l1d.readMisses.value());
        // The core issued exactly this many data accesses.
        EXPECT_EQ(l1d.demandAccesses.value(),
                  sys.core(c).loads.value() +
                      sys.core(c).stores.value());
    }
}

TEST(SystemFunctional, InclusionHoldsBetweenL1AndL2)
{
    System sys(smallConfig("qry16", PrefetchMode::None));
    sys.runFunctional(30000);
    // Every valid L1D application block must be present in the
    // inclusive L2 (PV blocks are exempt by design; baseline has
    // none anyway).
    for (int c = 0; c < sys.numCores(); ++c) {
        uint64_t violations = 0;
        sys.l1d(c).forEachValidBlock([&](Addr addr, const CacheBlk &) {
            if (!sys.l2().contains(addr))
                ++violations;
        });
        EXPECT_EQ(violations, 0u)
            << "L1D blocks missing from the inclusive L2";
    }
}

TEST(SystemFunctional, SmsImprovesCoverageOverBaseline)
{
    System base(smallConfig("qry1", PrefetchMode::None));
    base.runFunctional(60000);

    System sms(smallConfig("qry1", PrefetchMode::SmsDedicated));
    sms.runFunctional(60000);

    CoverageMetrics cov = coverageOf(sms);
    // The scan-dominated workload must show substantial coverage.
    EXPECT_GT(cov.coveredPct(), 30.0);
    // And prefetching reduces observed misses vs the baseline run.
    uint64_t base_misses = 0, sms_misses = 0;
    for (int c = 0; c < 2; ++c) {
        base_misses += base.l1d(c).readMisses.value();
        sms_misses += sms.l1d(c).readMisses.value();
    }
    EXPECT_LT(sms_misses, base_misses);
}

TEST(SystemFunctional, VirtualizedMatchesDedicatedCoverage)
{
    SystemConfig ded = smallConfig("qry17", PrefetchMode::SmsDedicated);
    SystemConfig pv =
        smallConfig("qry17", PrefetchMode::SmsVirtualized);

    System ds(ded);
    ds.runFunctional(80000);
    System ps(pv);
    ps.runFunctional(80000);

    CoverageMetrics dc = coverageOf(ds);
    CoverageMetrics pc = coverageOf(ps);
    // Paper: "the virtualized prefetcher matches the performance of
    // the original scheme". Allow a few points of slack.
    EXPECT_NEAR(dc.coveredPct(), pc.coveredPct(), 5.0);
}

TEST(SystemFunctional, PvTrafficIsClassifiedAtTheL2)
{
    System sys(smallConfig("oracle", PrefetchMode::SmsVirtualized));
    sys.runFunctional(50000);
    TrafficMetrics t = trafficOf(sys);
    EXPECT_GT(t.l2RequestsPv, 0u) << "PVProxy must reach the L2";
    // PV requests must be a modest fraction, not the majority.
    EXPECT_LT(t.l2RequestsPv, t.l2Requests);
}

TEST(SystemFunctional, PvProxyHitsInL2MostOfTheTime)
{
    System sys(smallConfig("apache", PrefetchMode::SmsVirtualized));
    sys.runFunctional(50000);
    Cache &l2 = sys.l2();
    uint64_t pv_req = l2.requestsPv.value();
    uint64_t pv_miss = l2.missesPv.value();
    ASSERT_GT(pv_req, 0u);
    // Paper Section 4.3: "more than 98% of the PVProxy memory
    // requests are filled in L2". Demand a strong majority here.
    EXPECT_GT(1.0 - double(pv_miss) / double(pv_req), 0.90);
}

TEST(SystemTiming, BaselineProducesPlausibleIpc)
{
    SystemConfig cfg = smallConfig("qry2", PrefetchMode::None);
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    Tick finish = sys.runTiming(8000);
    EXPECT_GT(finish, 0u);
    double ipc = aggregateIpc(sys.totalInstructions(), finish);
    // Two 4-wide in-order cores, cold caches, 400-cycle DRAM, no
    // MLP: very low but positive aggregate IPC; bounded by 2*width.
    EXPECT_GT(ipc, 0.005);
    EXPECT_LT(ipc, 8.0);
    EXPECT_TRUE(sys.quiesced());
}

TEST(SystemTiming, PrefetchingDoesNotSlowDownScans)
{
    SystemConfig base = smallConfig("qry1", PrefetchMode::None);
    base.mode = SimMode::Timing;
    SystemConfig sms = smallConfig("qry1", PrefetchMode::SmsDedicated);
    sms.mode = SimMode::Timing;

    System bs(base);
    Tick bt = bs.runTiming(15000);
    System ss(sms);
    Tick st = ss.runTiming(15000);

    double ipc_base = aggregateIpc(bs.totalInstructions(), bt);
    double ipc_sms = aggregateIpc(ss.totalInstructions(), st);
    EXPECT_GT(ipc_sms, ipc_base * 0.98)
        << "SMS must not hurt a scan workload";
}

TEST(SystemTiming, VirtualizedRunsAndDrains)
{
    SystemConfig cfg = smallConfig("db2", PrefetchMode::SmsVirtualized);
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    Tick finish = sys.runTiming(10000);
    EXPECT_GT(finish, 0u);
    EXPECT_TRUE(sys.quiesced());
    EXPECT_TRUE(sys.ctx().events().empty());
    TrafficMetrics t = trafficOf(sys);
    EXPECT_GT(t.l2RequestsPv, 0u);
}

TEST(SystemTiming, FinishTickIsTheLastCoreToFinish)
{
    // Cores on different workloads finish out of index order, and
    // prefetches are still in flight when the last one finishes. The
    // tick runTiming returns must be the first tick at which every
    // core is done, found here on an identical machine stepped by
    // hand, over a warmup phase and a measured one.
    SystemConfig cfg = smallConfig("qry2", PrefetchMode::SmsDedicated);
    cfg.numCores = 4;
    cfg.workloadMix = {"qry1", "apache", "zeus", "db2"};
    cfg.mode = SimMode::Timing;
    System timed(cfg);
    System stepped(cfg);
    EventQueue &eq = stepped.ctx().events();
    for (uint64_t records : {1000u, 2500u}) {
        const Tick finish = timed.runTiming(records);

        for (int c = 0; c < stepped.numCores(); ++c)
            stepped.core(c).start(records);
        std::vector<Tick> done_at(size_t(stepped.numCores()), 0);
        Tick all_done_at = 0;
        while (!eq.empty()) {
            eq.runOneTick();
            bool all_done = true;
            for (int c = 0; c < stepped.numCores(); ++c) {
                if (!stepped.core(c).done())
                    all_done = false;
                else if (done_at[c] == 0)
                    done_at[c] = eq.curTick();
            }
            if (all_done && all_done_at == 0)
                all_done_at = eq.curTick();
        }
        EXPECT_EQ(finish, all_done_at) << records << " records";
        EXPECT_LT(all_done_at, eq.curTick())
            << "premise: work drains after the last core finishes";
        EXPECT_NE(std::max_element(done_at.begin(), done_at.end()),
                  done_at.end() - 1)
            << "premise: the last core is not the last to finish";
        EXPECT_FALSE(std::is_sorted(done_at.begin(), done_at.end()))
            << "premise: cores finish out of index order";
    }
}

namespace {

const std::string kStuck = "stuck.sender";

/** A retry no device ever accepts: it waits on a device that
 *  never releases, and a pass would park it again. */
struct StuckRetry {
    EventQueue *q;
    Refuser *by;
    void operator()() const { q->park(kStuck, *by, *this); }
};

} // namespace

TEST(SystemTiming, ParkedRetryIsNotQuiesced)
{
    SystemConfig cfg = smallConfig("qry2", PrefetchMode::None);
    cfg.mode = SimMode::Timing;
    Refuser never;
    System sys(cfg);
    EXPECT_TRUE(sys.quiesced());
    StuckRetry{&sys.ctx().events(), &never}();
    EXPECT_FALSE(sys.quiesced()) << "a parked retry is work in flight";
}

TEST(SystemTimingDeathTest, LostWakeUpNamesTheParkedRetrier)
{
    // A refusal whose release is never noted leaves its sender
    // parked after everything else drained: the run must fail and
    // say who is stuck, not report a lost response or hang.
    SystemConfig cfg = smallConfig("qry2", PrefetchMode::None);
    cfg.mode = SimMode::Timing;
    EXPECT_DEATH(
        {
            Refuser never;
            System sys(cfg);
            (StuckRetry{&sys.ctx().events(), &never})();
            sys.runTiming(200);
        },
        "1 retry still parked \\(lost wake-up\\): stuck.sender");
}

TEST(SystemLifecycle, NoPacketLeaksAcrossSystemLifetimes)
{
    int64_t before = Packet::liveCount();
    {
        SystemConfig cfg =
            smallConfig("zeus", PrefetchMode::SmsVirtualized);
        System sys(cfg);
        sys.runFunctional(20000);
    }
    {
        SystemConfig cfg = smallConfig("zeus", PrefetchMode::SmsDedicated);
        cfg.mode = SimMode::Timing;
        System sys(cfg);
        sys.runTiming(5000);
    }
    EXPECT_EQ(Packet::liveCount(), before)
        << "packets leaked across run lifetimes";
}

TEST(SystemConfigTest, LabelsFollowThePapersNaming)
{
    SystemConfig cfg;
    cfg.prefetch = PrefetchMode::SmsDedicated;
    cfg.phtGeometry = {1024, 11};
    EXPECT_EQ(cfg.label(), "SMS-1K-11a");
    cfg.phtGeometry = {8, 11};
    EXPECT_EQ(cfg.label(), "SMS-8-11a");
    cfg.prefetch = PrefetchMode::SmsVirtualized;
    cfg.pvCacheEntries = 8;
    EXPECT_EQ(cfg.label(), "SMS-PV8");
    cfg.prefetch = PrefetchMode::None;
    EXPECT_EQ(cfg.label(), "baseline");
}

TEST(SystemFunctional, SharedPvTableRunsAndServesAllCores)
{
    SystemConfig cfg =
        smallConfig("db2", PrefetchMode::SmsVirtualized);
    cfg.sharedPvTable = true;
    System sys(cfg);
    sys.runFunctional(40000);
    // Both proxies target the same PVStart.
    EXPECT_EQ(sys.virtPht(0)->segment().pvStart(),
              sys.virtPht(1)->segment().pvStart());
    // And the system still predicts.
    uint64_t hits = 0;
    for (int c = 0; c < sys.numCores(); ++c)
        hits += sys.sms(c)->phtHits.value();
    EXPECT_GT(hits, 0u);
}

TEST(SystemStats, DumpProducesNamedCounters)
{
    System sys(smallConfig("qry2", PrefetchMode::SmsVirtualized));
    sys.runFunctional(15000);
    std::ostringstream os;
    sys.ctx().dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("core0.l1d.demand_accesses"),
              std::string::npos);
    EXPECT_NE(out.find("core0.pvproxy.operations"),
              std::string::npos);
    EXPECT_NE(out.find("l2.requests_pv"), std::string::npos);
    EXPECT_NE(out.find("dram.read_bytes"), std::string::npos);
}

TEST(SystemStats, ResetZeroesCountersButKeepsContents)
{
    System sys(smallConfig("apache", PrefetchMode::None));
    sys.runFunctional(20000);
    uint64_t valid_before = sys.l1d(0).numValidBlocks();
    ASSERT_GT(valid_before, 0u);
    sys.resetStats();
    EXPECT_EQ(sys.l1d(0).demandAccesses.value(), 0u);
    EXPECT_EQ(sys.core(0).recordsConsumed(), 0u);
    EXPECT_EQ(sys.l1d(0).numValidBlocks(), valid_before)
        << "stats reset must not flush cache contents";
}
