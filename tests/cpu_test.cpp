/**
 * @file
 * Tests for the trace-driven core: functional stepping, instruction
 * accounting, timing-mode stall behaviour (loads, fetch, store
 * buffer) and retire-width math.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/btb.hh"
#include "cpu/trace_core.hh"
#include "mem/dram.hh"

using namespace pvsim;

namespace {

/** Scripted trace source. */
struct ScriptedTrace : public TraceSource {
    std::deque<TraceRecord> script;
    std::deque<TraceRecord> remaining;

    explicit ScriptedTrace(std::deque<TraceRecord> s)
        : script(s), remaining(std::move(s))
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (remaining.empty())
            return false;
        rec = remaining.front();
        remaining.pop_front();
        return true;
    }

    void reset() override { remaining = script; }
    std::string sourceName() const override { return "scripted"; }
};

TraceRecord
rec(Addr pc, Addr addr, uint16_t gap, MemOp op = MemOp::Load)
{
    TraceRecord r;
    r.pc = pc;
    r.addr = addr;
    r.gap = gap;
    r.op = op;
    return r;
}

struct CpuTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 64 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l1d, l1i;
    std::unique_ptr<ScriptedTrace> trace;
    std::unique_ptr<TraceCore> core;

    void
    build(std::deque<TraceRecord> script,
          SimMode mode = SimMode::Functional,
          unsigned store_buffer = 8)
    {
        ctxp = std::make_unique<SimContext>(mode);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 100, 0}, &amap);
        CacheParams cp;
        cp.name = "l1d";
        cp.sizeBytes = 4 * 1024;
        cp.assoc = 2;
        l1d = std::make_unique<Cache>(*ctxp, cp, &amap);
        cp.name = "l1i";
        l1i = std::make_unique<Cache>(*ctxp, cp, &amap);
        l1d->setMemSide(dram.get());
        l1i->setMemSide(dram.get());
        trace = std::make_unique<ScriptedTrace>(std::move(script));
        CoreParams corep;
        corep.name = "core0";
        corep.width = 4;
        corep.storeBufferEntries = store_buffer;
        core = std::make_unique<TraceCore>(
            *ctxp, corep, trace.get(), l1d.get(), l1i.get());
    }
};

} // namespace

TEST_F(CpuTest, FunctionalStepConsumesRecords)
{
    build({rec(0x1000, 0x8000, 3), rec(0x1010, 0x8040, 2)});
    EXPECT_EQ(core->stepFunctionalBatch(1), 1u);
    EXPECT_EQ(core->stepFunctionalBatch(1), 1u);
    EXPECT_EQ(core->stepFunctionalBatch(1), 0u) << "trace exhausted";
    EXPECT_EQ(core->recordsConsumed(), 2u);
    // gap+1 instructions per record.
    EXPECT_EQ(core->instructionsRetired(), 4u + 3u);
}

TEST_F(CpuTest, FunctionalAccessesBothCaches)
{
    build({rec(0x1000, 0x8000, 0)});
    core->stepFunctionalBatch(1);
    EXPECT_TRUE(l1d->contains(0x8000));
    EXPECT_TRUE(l1i->contains(0x1000));
    EXPECT_EQ(core->loads.value(), 1u);
}

TEST_F(CpuTest, FunctionalStoresCountSeparately)
{
    build({rec(0x1000, 0x8000, 0, MemOp::Store),
           rec(0x1000, 0x8040, 0, MemOp::Load)});
    core->stepFunctionalBatch(1);
    core->stepFunctionalBatch(1);
    EXPECT_EQ(core->stores.value(), 1u);
    EXPECT_EQ(core->loads.value(), 1u);
    EXPECT_TRUE(l1d->peekBlock(0x8000)->dirty);
}

TEST_F(CpuTest, TimingRunRetiresEverythingAndStops)
{
    std::deque<TraceRecord> script;
    for (int i = 0; i < 50; ++i)
        script.push_back(rec(0x1000 + Addr(i % 4) * 4,
                             0x8000 + Addr(i % 8) * 64, 3));
    build(std::move(script), SimMode::Timing);
    core->start(0);
    ctxp->events().runUntil();
    EXPECT_TRUE(core->done());
    EXPECT_EQ(core->recordsConsumed(), 50u);
    EXPECT_EQ(core->instructionsRetired(), 50u * 4u);
    EXPECT_GT(ctxp->curTick(), 50u)
        << "cold misses must cost time";
}

TEST_F(CpuTest, TimingRecordBudgetIsHonored)
{
    std::deque<TraceRecord> script;
    for (int i = 0; i < 100; ++i)
        script.push_back(rec(0x1000, 0x8000, 1));
    build(std::move(script), SimMode::Timing);
    core->start(30);
    ctxp->events().runUntil();
    EXPECT_TRUE(core->done());
    EXPECT_EQ(core->recordsConsumed(), 30u);
}

TEST_F(CpuTest, LoadMissesStallTheCore)
{
    // Two loads to distinct cold blocks: the second cannot issue
    // until the first returns (stall-on-use, in order).
    build({rec(0x1000, 0x8000, 0), rec(0x1000, 0x10000, 0)},
          SimMode::Timing);
    core->start(0);
    ctxp->events().runUntil();
    // Two serialized 100-cycle misses (plus fetch): >= 200 cycles.
    EXPECT_GE(ctxp->curTick(), 200u);
    EXPECT_GT(core->loadStallCycles.value(), 150u);
}

TEST_F(CpuTest, WarmLoadsDoNotStall)
{
    std::deque<TraceRecord> script;
    // Same block over and over: one cold miss, then all hits.
    for (int i = 0; i < 40; ++i)
        script.push_back(rec(0x1000, 0x8000, 3));
    build(std::move(script), SimMode::Timing);
    core->start(0);
    ctxp->events().runUntil();
    Tick total = ctxp->curTick();
    // One miss (~100) + ifetch miss (~100) + 40 records x 1 cycle.
    EXPECT_LT(total, 280u);
}

TEST_F(CpuTest, StoresOverlapThroughStoreBuffer)
{
    // Independent store misses should overlap (non-blocking).
    std::deque<TraceRecord> script;
    for (int i = 0; i < 4; ++i)
        script.push_back(rec(0x1000, 0x8000 + Addr(i) * 0x1000, 0,
                             MemOp::Store));
    build(std::move(script), SimMode::Timing);
    core->start(0);
    ctxp->events().runUntil();
    // Four overlapped 100-cycle store misses must finish way below
    // the serialized 400 cycles.
    EXPECT_LT(ctxp->curTick(), 300u);
    EXPECT_EQ(core->stores.value(), 4u);
}

TEST_F(CpuTest, FullStoreBufferStalls)
{
    std::deque<TraceRecord> script;
    for (int i = 0; i < 4; ++i)
        script.push_back(rec(0x1000, 0x8000 + Addr(i) * 0x1000, 0,
                             MemOp::Store));
    build(std::move(script), SimMode::Timing, /*store_buffer=*/1);
    core->start(0);
    ctxp->events().runUntil();
    // With one entry the stores serialize.
    EXPECT_GE(ctxp->curTick(), 300u);
    EXPECT_GT(core->storeStallCycles.value(), 0u);
}

TEST_F(CpuTest, RestartClearsBranchReconstruction)
{
    // Warmup ends at one pc, measurement starts at an unrelated
    // one. Within each phase the records are pure fall-through
    // (gap 0, instBytes 4 => next pc = pc + 4), so the only branch
    // edge a phase could score is the phantom one crossing the
    // warmup->measure boundary — start() must not score it.
    std::deque<TraceRecord> script;
    for (int i = 0; i < 5; ++i)
        script.push_back(rec(0x1000 + Addr(i) * 4, 0x8000, 0));
    for (int i = 0; i < 5; ++i)
        script.push_back(rec(0x9000 + Addr(i) * 4, 0x8000, 0));
    build(std::move(script), SimMode::Timing);

    core->start(5);
    ctxp->events().runUntil();
    EXPECT_EQ(core->takenBranches.value(), 0u);

    ctxp->resetStats();
    core->start(5);
    ctxp->events().runUntil();
    EXPECT_EQ(core->recordsConsumed(), 5u);
    EXPECT_EQ(core->takenBranches.value(), 0u)
        << "the warmup->measure boundary is not a branch";
}

TEST_F(CpuTest, MispredictPenaltyChargesRedirects)
{
    // Two pcs alternating: every record boundary is a taken branch
    // with a stable key->target mapping, so the BTB cold-misses
    // each edge once and hits ever after — both outcomes appear.
    std::deque<TraceRecord> script;
    for (int i = 0; i < 12; ++i) {
        script.push_back(rec(0x1000, 0x8000, 0));
        script.push_back(rec(0x2000, 0x8000, 0)); // taken edge
    }
    build(std::move(script), SimMode::Timing);
    DedicatedBtb btb(DedicatedBtbParams{16, 2, 16});

    // The fixture core has no penalty knob set; exercise the
    // penalty path through a second core sharing its caches.
    CoreParams corep;
    corep.name = "core_pen";
    corep.width = 4;
    corep.btbMispredictPenalty = 9;
    TraceCore penalized(*ctxp, corep, trace.get(), l1d.get(),
                        l1i.get());
    penalized.setBtb(&btb);
    penalized.start(0);
    ctxp->events().runUntil();

    EXPECT_GT(penalized.takenBranches.value(), 0u);
    EXPECT_GT(penalized.btbHits.value(), 0u);
    EXPECT_GT(penalized.btbMispredicts.value(), 0u);
    EXPECT_EQ(penalized.fetchRedirects.value(),
              penalized.btbMispredicts.value());
    EXPECT_EQ(penalized.mispredictStallCycles.value(),
              penalized.btbMispredicts.value() * 9u);
}

TEST_F(CpuTest, GapInstructionsChargeRetireWidth)
{
    // One record with a big gap and warm caches afterwards.
    std::deque<TraceRecord> script;
    script.push_back(rec(0x1000, 0x8000, 0));  // warm block
    script.push_back(rec(0x1000, 0x8000, 99)); // 100 insts / width 4
    build(std::move(script), SimMode::Timing);
    core->start(0);
    ctxp->events().runUntil();
    // The gap record costs ceil(100/4) = 25 cycles of pure retire.
    EXPECT_GE(ctxp->curTick(), 25u);
    EXPECT_EQ(core->instructionsRetired(), 1u + 100u);
}
