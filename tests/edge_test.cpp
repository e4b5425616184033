/**
 * @file
 * Edge cases and failure injection: buffer-pressure drops in the
 * PVProxy, timing-mode flush draining, end-of-trace with in-flight
 * stores, guard-rail panics on misuse, and L2 bank serialization.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/pv_proxy.hh"
#include "core/virt_table.hh"
#include "cpu/trace_core.hh"
#include "harness/system.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

struct EdgeFixture : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 64 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;

    void
    build(SimMode mode, Cycles dram_latency = 400)
    {
        l2.reset();
        dram.reset();
        ctxp = std::make_unique<SimContext>(mode);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", dram_latency, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 64 * 1024;
        l2p.assoc = 8;
        l2p.banks = 4;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dram.get());
    }
};

} // namespace

TEST_F(EdgeFixture, PatternBufferLimitDropsOpsBeforeMshrLimit)
{
    build(SimMode::Timing);
    PvProxyParams pp;
    pp.mshrs = 4;
    pp.patternBufferEntries = 2; // tighter than the MSHR file
    PvProxy proxy(*ctxp, pp, amap.pvStart(0), 64 * kBlockBytes);
    proxy.registerEngine({"table0", 64, 0, {}});
    proxy.setMemSide(l2.get());

    int dropped = 0, completed = 0;
    for (unsigned s = 0; s < 3; ++s) {
        proxy.access({0, s, PvReqClass::Demand, fnOp([&](PvLineView v) {
            if (v.bytes)
                ++completed;
            else
                ++dropped;
        })});
    }
    EXPECT_EQ(dropped, 1) << "third op exceeds the pattern buffer";
    ctxp->events().runUntil();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(proxy.droppedOps.value(), 1u);
}

TEST_F(EdgeFixture, TimingFlushDrainsDirtyLines)
{
    build(SimMode::Timing);
    PvProxy proxy(*ctxp, PvProxyParams{}, amap.pvStart(0),
                  64 * kBlockBytes);
    proxy.registerEngine({"table0", 64, 0, {}});
    proxy.setMemSide(l2.get());

    for (unsigned s = 0; s < 4; ++s) {
        proxy.access({0, s, PvReqClass::Demand, fnOp([](PvLineView v) {
            if (v.bytes) {
                v.bytes[0] = 0x55;
                *v.dirty = true;
            }
        })});
    }
    ctxp->events().runUntil();
    proxy.flush();
    ctxp->events().runUntil();
    EXPECT_EQ(proxy.writebacks.value(), 4u);
    EXPECT_TRUE(proxy.quiesced());
    // The dirty lines are now in the L2.
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_TRUE(
            l2->contains(PvTableLayout(amap.pvStart(0), 64)
                             .setAddress(s)));
}

namespace {

struct EndlessStores : public TraceSource {
    uint64_t count = 0;
    bool
    next(TraceRecord &rec) override
    {
        rec.pc = 0x1000;
        rec.addr = 0x100000 + (count % 64) * 0x1000;
        rec.gap = 0;
        rec.op = MemOp::Store;
        ++count;
        return true;
    }
    void reset() override { count = 0; }
    std::string sourceName() const override { return "stores"; }
};

} // namespace

TEST_F(EdgeFixture, CoreDrainsInFlightStoresAtTraceEnd)
{
    build(SimMode::Timing, 200);
    CacheParams l1p;
    l1p.name = "l1d";
    l1p.sizeBytes = 4 * 1024;
    l1p.assoc = 2;
    Cache l1d(*ctxp, l1p, &amap);
    Cache l1i(*ctxp, l1p, &amap);
    l1d.setMemSide(l2.get());
    l1d.setLowerSlot(l2->attachClient(&l1d));
    l1i.setMemSide(l2.get());
    l1i.setLowerSlot(l2->attachClient(&l1i));

    EndlessStores trace;
    CoreParams cp;
    cp.name = "core0";
    TraceCore core(*ctxp, cp, &trace, &l1d, &l1i);
    // Stop after 6 records: several stores are still in flight.
    core.start(6);
    ctxp->events().runUntil();
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.stores.value(), 6u);
    EXPECT_TRUE(l1d.quiesced()) << "fills must complete after done";
    int64_t live = Packet::liveCount();
    EXPECT_GE(live, 0);
}

TEST_F(EdgeFixture, BankConflictsSerializeLookups)
{
    build(SimMode::Timing);
    // Two same-bank requests must resolve later than two
    // different-bank requests issued at the same tick.
    struct Sink : MemClient {
        std::vector<Tick> at;
        SimContext *ctx;
        void recvResponse(PacketPtr pkt) override
        {
            at.push_back(ctx->curTick());
            delete pkt;
        }
        std::string clientName() const override { return "sink"; }
    } sink;
    sink.ctx = ctxp.get();

    // Warm two same-bank blocks (bank = blockNumber % 4).
    for (Addr a : {Addr(0x10000), Addr(0x10000 + 4 * 64)}) {
        Packet *w = new Packet(MemCmd::ReadReq, a, 0);
        w->src = &sink;
        l2->recvRequest(w);
    }
    ctxp->events().runUntil();
    sink.at.clear();

    Tick start = ctxp->curTick();
    for (Addr a : {Addr(0x10000), Addr(0x10000 + 4 * 64)}) {
        Packet *r = new Packet(MemCmd::ReadReq, a, 0);
        r->src = &sink;
        l2->recvRequest(r);
    }
    ctxp->events().runUntil();
    ASSERT_EQ(sink.at.size(), 2u);
    // Both hit; the second same-bank hit is delayed by the bank.
    Tick first = sink.at[0] - start, second = sink.at[1] - start;
    EXPECT_GT(second, first);
}

// ---------------------------------------------------------------------
// Guard rails (death tests)
// ---------------------------------------------------------------------

TEST(GuardRails, PvLayoutRejectsOutOfRangeSet)
{
    PvTableLayout layout(0xB0000000, 64);
    EXPECT_DEATH(layout.setAddress(64), "out of range");
}

TEST(GuardRails, CodecRejectsOversizedGeometry)
{
    EXPECT_DEATH(PvSetCodec(12, 11, 32), "does not fit");
}

TEST(GuardRails, StoreOfZeroPayloadIsRejected)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);
    CacheParams cp;
    cp.name = "l2";
    cp.sizeBytes = 64 * 1024;
    cp.assoc = 8;
    Cache l2(ctx, cp, &amap);
    l2.setMemSide(&dram);
    PvProxy proxy(ctx, PvProxyParams{}, amap.pvStart(0),
                  64 * kBlockBytes);
    proxy.setMemSide(&l2);
    PvSetCodec codec(11, 11, 32);
    VirtualizedAssocTable table(
        &proxy, proxy.registerEngine({"table0", 64, 0, {}}), codec);
    std::array<uint8_t, kBlockBytes> line{};
    bool dirty = false;
    std::array<uint8_t, kPvMaxWays> ages{};
    EXPECT_DEATH(table.storeIn({line.data(), &dirty, &ages},
                               table.tagOf(5), 0),
                 "empty marker");
}
