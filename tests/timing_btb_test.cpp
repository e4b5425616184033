/**
 * @file
 * Timing-mode equivalence suite for the BTB mispredict penalty:
 * penalty=0 reproduces the historical (branches-are-free) timing
 * bit-for-bit, penalty>0 lowers IPC monotonically and is accounted
 * exactly, the dedicated-vs-virtualized matched pair shows a
 * deterministic IPC delta independent of PVSIM_JOBS, and the
 * dedicated BTB model itself learns/evicts as specified.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "config/scenario.hh"
#include "cpu/btb.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

SystemConfig
timingConfig(int cores, BtbMode mode, Cycles penalty,
             unsigned btb_sets = 256)
{
    SystemConfig cfg;
    cfg.mode = SimMode::Timing;
    cfg.numCores = cores;
    cfg.prefetch = PrefetchMode::None;
    cfg.btb.mode = mode;
    cfg.btb.numSets = btb_sets;
    cfg.btbMispredictPenalty = penalty;
    return cfg;
}

/** A fig9 scenario: two batches of `measure` records per core on a
 *  2-core machine with an 8-cycle penalty and a `btb_sets`-set BTB. */
Scenario
fig9Scenario(unsigned btb_sets, uint64_t warmup, uint64_t measure)
{
    Scenario s;
    s.name = "fig9";
    s.kind = "fig9";
    s.warmupRecords = warmup;
    s.measureRecords = measure;
    s.batches = 2;
    s.system.numCores = 2;
    s.system.btb.numSets = btb_sets;
    s.system.btbMispredictPenalty = 8;
    return s;
}

} // namespace

TEST(DedicatedBtbTest, LearnsLooksUpAndEvictsLru)
{
    DedicatedBtb btb(DedicatedBtbParams{4, 2, 16});

    bool found = false;
    Addr target = 0;
    auto capture = [&](bool f, Addr t) {
        found = f;
        target = t;
    };

    lookup(btb, 0x1000, capture);
    EXPECT_FALSE(found) << "cold BTB predicts nothing";

    btb.update(0x1000, 0x2000);
    lookup(btb, 0x1000, capture);
    EXPECT_TRUE(found);
    EXPECT_EQ(target, 0x2000u);

    btb.update(0x1000, 0x3000); // retarget in place
    lookup(btb, 0x1000, capture);
    EXPECT_TRUE(found);
    EXPECT_EQ(target, 0x3000u);

    // Three keys in the same set of a 2-way table: the LRU one
    // (0x1000 was refreshed by the lookups above) must survive.
    // Set index = (pc >> 2) % 4, so pcs 16 apart collide.
    btb.update(0x1010, 0x4000);
    lookup(btb, 0x1000, capture); // refresh 0x1000's recency
    btb.update(0x1020, 0x5000);  // evicts 0x1010
    lookup(btb, 0x1000, capture);
    EXPECT_TRUE(found) << "recently touched entry survives";
    lookup(btb, 0x1020, capture);
    EXPECT_TRUE(found);
    lookup(btb, 0x1010, capture);
    EXPECT_FALSE(found) << "LRU way was evicted";

    EXPECT_EQ(btb.storageBits(), 4u * 2u * (16u + 46u));
}

TEST(TimingBtbTest, PenaltyZeroMatchesNoBtbBitForBit)
{
    // A dedicated BTB with penalty 0 trains and scores but charges
    // nothing and generates no traffic: the event stream — and so
    // every cycle count — must equal the no-BTB machine's exactly.
    SystemConfig off = timingConfig(2, BtbMode::None, 0);
    SystemConfig on = timingConfig(2, BtbMode::Dedicated, 0);

    System a(off), b(on);
    Tick fa = a.runTiming(4000);
    Tick fb = b.runTiming(4000);

    EXPECT_EQ(fa, fb) << "penalty=0 must not move a single tick";
    EXPECT_EQ(a.ctx().curTick(), b.ctx().curTick());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(a.core(c).loadStallCycles.value(),
                  b.core(c).loadStallCycles.value());
        EXPECT_EQ(a.core(c).fetchStallCycles.value(),
                  b.core(c).fetchStallCycles.value());
        EXPECT_EQ(b.core(c).mispredictStallCycles.value(), 0u);
        EXPECT_EQ(b.core(c).fetchRedirects.value(), 0u);
        EXPECT_GT(b.core(c).takenBranches.value(), 0u);
        EXPECT_GT(b.core(c).btbHits.value() +
                      b.core(c).btbMispredicts.value(),
                  0u)
            << "the BTB must have been exercised";
    }
}

TEST(TimingBtbTest, PenaltyLowersIpcMonotonically)
{
    SystemConfig cfg = timingConfig(1, BtbMode::Dedicated, 0);
    double prev_ipc = 0.0;
    bool first = true;
    for (Cycles penalty : {Cycles(0), Cycles(4), Cycles(16)}) {
        cfg.btbMispredictPenalty = penalty;
        double ipc = timedIpc(cfg, 1000, 4000);
        ASSERT_GT(ipc, 0.0);
        if (!first) {
            EXPECT_LT(ipc, prev_ipc)
                << "penalty " << penalty
                << " must cost IPC (mispredicts exist)";
        }
        prev_ipc = ipc;
        first = false;
    }
}

TEST(TimingBtbTest, MispredictStallsAccountedExactly)
{
    // Dedicated BTB answers synchronously, so redirects correspond
    // 1:1 to scored mispredicts and the stall stat is their sum.
    constexpr Cycles kPenalty = 7;
    SystemConfig cfg = timingConfig(1, BtbMode::Dedicated, kPenalty);
    System sys(cfg);
    sys.runTiming(5000);

    TraceCore &core = sys.core(0);
    EXPECT_GT(core.btbMispredicts.value(), 0u);
    EXPECT_EQ(core.fetchRedirects.value(),
              core.btbMispredicts.value());
    EXPECT_EQ(core.mispredictStallCycles.value(),
              core.btbMispredicts.value() * kPenalty);
    EXPECT_GT(core.btbHits.value(), 0u)
        << "a 256-set BTB must predict something on this stream";
}

TEST(TimingBtbTest, VirtualizedBtbShowsIpcDelta)
{
    // The headline experiment: same geometry, same seeds, same
    // penalty — only the BTB's home differs. The virtualized side
    // pays for predictions that are not available at fetch (PVCache
    // misses waiting on L2) with redirects the SRAM side avoids, so
    // the matched pair must report a nonzero IPC delta.
    Scenario s = fig9Scenario(128, 500, 2000);
    s.fig9.mixes = {{"web", {"apache", "zeus"}, {}}};

    std::vector<Row> rows = scenarioRows(s);
    ASSERT_EQ(rows.size(), 1u);
    const Row &r = rows[0];
    EXPECT_GT(r.value("dedicated_ipc"), 0.0);
    EXPECT_GT(r.value("virtualized_ipc"), 0.0);
    EXPECT_LT(r.value("virtualized_ipc"), r.value("dedicated_ipc"))
        << "unavailable PV predictions must cost IPC at penalty 8";
    EXPECT_LT(r.value("speedup_pct"), 0.0);
}

TEST(TimingBtbTest, MatchedPairDeterministicAcrossRerunsAndJobs)
{
    Scenario s = fig9Scenario(128, 500, 1500);
    s.fig9.mixes = {{"mixed", {"apache", "qry2"}, {}}};

    setenv("PVSIM_JOBS", "1", 1);
    std::vector<Row> serial = scenarioRows(s);
    std::vector<Row> again = scenarioRows(s);
    setenv("PVSIM_JOBS", "4", 1);
    std::vector<Row> threaded = scenarioRows(s);
    unsetenv("PVSIM_JOBS");

    ASSERT_EQ(serial.size(), 1u);
    ASSERT_EQ(threaded.size(), 1u);
    for (const char *field :
         {"dedicated_ipc", "virtualized_ipc", "speedup_pct", "ci_pct",
          "dedicated_hit_pct", "virtualized_hit_pct", "events"}) {
        EXPECT_EQ(serial[0].value(field), again[0].value(field))
            << field << ": rerun must be bit-identical";
        EXPECT_EQ(serial[0].value(field), threaded[0].value(field))
            << field << ": worker count must not leak into the physics";
    }
}

TEST(TimingBtbTest, MixedMixDedicatedBtbLearnsTheStream)
{
    // The acceptance bar of the program-structure refactor: on the
    // "mixed" preset mix with its branch profile, a 512-set
    // dedicated BTB must convert the learnable successor edges into
    // a hit rate >= 60% (the flat streams capped at a few percent).
    const WorkloadMix mixed = presetMixes()[3];
    ASSERT_EQ(mixed.name, "mixed");
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.prefetch = PrefetchMode::None;
    cfg.btb.mode = BtbMode::Dedicated;
    cfg.btb.numSets = 512;
    cfg.workloadMix = mixed.workloads;
    cfg.branchProfile = mixed.branch;
    System sys(cfg);
    sys.runFunctional(20000);
    sys.resetStats();
    sys.runFunctional(40000);
    uint64_t taken = 0, recs = 0;
    for (int c = 0; c < cfg.numCores; ++c) {
        TraceCore &core = sys.core(c);
        taken += core.takenBranches.value();
        recs += core.recordsConsumed();
        EXPECT_GE(core.btbHitRate(), 0.60)
            << "core " << c << " must learn the mixed stream";
        EXPECT_GT(core.callBranches.value(), 0u);
        EXPECT_GT(core.returnBranches.value(), 0u);
        EXPECT_GT(core.loopBranches.value(), 0u);
        EXPECT_NE(sys.dedicatedBtb(c), nullptr);
    }
    // Branchy profile: a taken branch every few records.
    EXPECT_GT(taken, recs / 10);
}

TEST(TimingBtbTest, EdgeStabilitySweepMovesHitRateAndRows)
{
    // Two stability passes over one mini-mix: the sweep must emit
    // one row per (stability, mix) and a lower stability must drag
    // the dedicated hit rate down.
    Scenario s = fig9Scenario(256, 1000, 3000);
    WorkloadMix mini = presetMixes()[0]; // web, branch profile on
    mini.workloads = {"apache", "zeus"};
    s.fig9.mixes = {mini};
    s.fig9.edgeStabilities = {1.0, 0.55};

    std::vector<Row> rows = scenarioRows(s);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].value("edge_stability"), 1.0);
    EXPECT_EQ(rows[1].value("edge_stability"), 0.55);
    EXPECT_GT(rows[0].value("dedicated_hit_pct"),
              rows[1].value("dedicated_hit_pct"))
        << "unstable edges must cost hit rate";
    EXPECT_GT(rows[0].value("dedicated_hit_pct"), 60.0);
    for (const Row &r : rows) {
        EXPECT_GT(r.value("dedicated_ipc"), 0.0);
        EXPECT_GT(r.value("virtualized_ipc"), 0.0);
    }
}

TEST(TimingBtbTest, PerCoreWorkloadMixFeedsDifferentStreams)
{
    // Heterogeneous mix: the cores must consume different record
    // streams (different presets), while an empty mix reproduces
    // the homogeneous historical behaviour.
    SystemConfig cfg = timingConfig(2, BtbMode::None, 0);
    cfg.workloadMix = {"apache", "qry1"};
    EXPECT_EQ(cfg.workloadFor(0), "apache");
    EXPECT_EQ(cfg.workloadFor(1), "qry1");
    // Wrap-around for mixes shorter than the machine.
    EXPECT_EQ(cfg.workloadFor(2), "apache");

    System sys(cfg);
    sys.runTiming(2000);
    // qry1 is scan-dominated with tiny code; apache is not — the
    // per-core load/store splits must differ visibly.
    EXPECT_NE(sys.core(0).stores.value(),
              sys.core(1).stores.value());
}
