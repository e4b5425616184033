/**
 * @file
 * Tests for the PVProxy: PVCache hit/miss behaviour, dirty
 * write-back through a real L2+DRAM hierarchy, operation dropping
 * under buffer pressure, timing-mode MSHR behaviour, flush, and the
 * Section 4.6 storage accounting.
 */

#include <gtest/gtest.h>

#include "core/pv_proxy.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

/** PVProxy in front of a real L2 + DRAM. */
struct PvProxyTest : public ::testing::Test {
    static constexpr unsigned kSets = 64;

    AddrMap amap{1ull << 30, 1, 64 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dramp;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;

    SimContext &ctx() { return *ctxp; }
    Dram &dram() { return *dramp; }

    void
    build(unsigned pvcache_entries = 8,
          SimMode mode = SimMode::Functional)
    {
        proxy.reset();
        l2.reset();
        dramp.reset();
        ctxp = std::make_unique<SimContext>(mode);
        dramp = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 400, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 64 * 1024;
        l2p.assoc = 8;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dramp.get());

        PvProxyParams pp;
        pp.pvCacheEntries = pvcache_entries;
        proxy = std::make_unique<PvProxy>(*ctxp, pp, amap.pvStart(0),
                                          kSets * kBlockBytes);
        // One tenant with the paper PHT's 473 live bits per line
        // (11 entries of 43 bits).
        proxy->registerEngine({"table0", kSets, 473, {}});
        proxy->setMemSide(l2.get());
    }

    /** Write a recognizable byte into a set's line. */
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

    /** Read back byte 0 of a set's line. */
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

TEST_F(PvProxyTest, ColdLineArrivesZeroed)
{
    build();
    EXPECT_EQ(peek(5), 0);
    EXPECT_EQ(proxy->pvCacheMisses.value(), 1u);
    EXPECT_EQ(proxy->pvCacheHits.value(), 0u);
}

TEST_F(PvProxyTest, SecondAccessHitsPvCache)
{
    build();
    peek(5);
    peek(5);
    EXPECT_EQ(proxy->pvCacheHits.value(), 1u);
    EXPECT_EQ(proxy->memRequests.value(), 1u);
}

TEST_F(PvProxyTest, DirtyEvictionRoundTripsThroughHierarchy)
{
    build(2); // tiny PVCache forces eviction quickly
    poke(1, 0xAB);
    poke(2, 0xCD);
    poke(3, 0xEF); // evicts set 1 (dirty) to the L2
    EXPECT_GE(proxy->writebacks.value(), 1u);
    // Refetch set 1: the bytes must come back through the L2.
    EXPECT_EQ(peek(1), 0xAB);
}

TEST_F(PvProxyTest, DataSurvivesL2EvictionViaDram)
{
    build(1); // every new set evicts the previous one
    poke(7, 0x77);
    peek(8); // evicts dirty set 7 into the L2
    ASSERT_EQ(proxy->writebacks.value(), 1u);
    // Thrash the L2 so the PV line is evicted off-chip.
    // L2: 64KB 8-way = 128 sets; generate conflicting app traffic
    // on the PV line's set.
    Addr pv_addr = proxy->engineLayout(0).setAddress(7);
    for (int i = 1; i <= 9; ++i) {
        Packet pkt(MemCmd::ReadReq, pv_addr % (128 * 64) +
                                        Addr(i) * 128 * 64,
                   0);
        l2->functionalAccess(pkt);
    }
    EXPECT_TRUE(dram().hasBlock(pv_addr))
        << "dirty PV line must reach DRAM when evicted from L2";
    // And the contents are still correct after refetch.
    EXPECT_EQ(peek(7), 0x77);
}

TEST_F(PvProxyTest, CleanEvictionIsSilent)
{
    build(1);
    peek(1);
    peek(2); // evicts clean set 1
    EXPECT_EQ(proxy->writebacks.value(), 0u);
    EXPECT_EQ(proxy->cleanEvicts.value(), 1u);
}

TEST_F(PvProxyTest, FlushWritesBackAllDirtyLines)
{
    build(8);
    poke(1, 0x11);
    poke(2, 0x22);
    peek(3); // clean
    proxy->flush();
    EXPECT_EQ(proxy->writebacks.value(), 2u);
    EXPECT_EQ(proxy->cleanEvicts.value(), 1u);
    // Data is recoverable after the flush.
    EXPECT_EQ(peek(1), 0x11);
    EXPECT_EQ(peek(2), 0x22);
}

TEST_F(PvProxyTest, LruKeepsHotLines)
{
    build(2);
    peek(1);
    peek(2);
    peek(1); // touch 1; 2 is now LRU
    peek(3); // evicts 2
    uint64_t misses = proxy->pvCacheMisses.value();
    peek(1); // must still hit
    EXPECT_EQ(proxy->pvCacheMisses.value(), misses);
    peek(2); // must miss
    EXPECT_EQ(proxy->pvCacheMisses.value(), misses + 1);
}

TEST_F(PvProxyTest, StorageBreakdownMatchesPaperScale)
{
    build(8);
    auto b = proxy->storageBreakdown();
    // Paper Section 4.6 for the full 1K-set design: PVCache 473B,
    // tags 11B, dirty 1B, MSHRs 84B, evict buffer 256B, pattern
    // buffer 64B => 889B. Our accounting must land in the same
    // ballpark (within ~15%) with identical category structure.
    EXPECT_EQ(b.pvCacheData, 8u * 473u);
    EXPECT_EQ(b.dirtyBits, 8u);
    EXPECT_EQ(b.patternBuffer, 16u * 32u);
    EXPECT_EQ(b.evictBuffer, 4u * 64u * 8u);
    double total = b.totalBytes();
    EXPECT_GT(total, 700.0);
    EXPECT_LT(total, 1000.0);
}

TEST_F(PvProxyTest, TimingModeFetchesAsynchronously)
{
    build(8, SimMode::Timing);
    bool done = false;
    uint8_t seen = 0xFF;
    proxy->access({0, 9, PvReqClass::Demand, fnOp([&](PvLineView v) {
        done = true;
        seen = v.bytes ? v.bytes[0] : 0xEE;
    })});
    EXPECT_FALSE(done) << "miss must complete later";
    ctx().events().runUntil();
    EXPECT_TRUE(done);
    EXPECT_EQ(seen, 0);
    EXPECT_TRUE(proxy->quiesced());
    // Latency must include at least the L2 round trip.
    EXPECT_GE(ctx().curTick(), 18u);
}

TEST_F(PvProxyTest, TimingCoalescesOpsOnOneFetch)
{
    build(8, SimMode::Timing);
    int completed = 0;
    for (int i = 0; i < 3; ++i)
        proxy->access({0, 9, PvReqClass::Demand,
                       fnOp([&](PvLineView) { ++completed; })});
    ctx().events().runUntil();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(proxy->memRequests.value(), 1u);
    EXPECT_EQ(proxy->coalescedOps.value(), 2u);
}

TEST_F(PvProxyTest, TimingDropsOpsWhenMshrsAreFull)
{
    build(8, SimMode::Timing);
    // Default 4 MSHRs: the 5th distinct set in flight is dropped and
    // must still call back (as a predictor miss).
    int dropped_cb = 0, completed = 0;
    for (unsigned s = 0; s < 5; ++s) {
        proxy->access({0, s, PvReqClass::Demand, fnOp([&](PvLineView v) {
            if (v.bytes)
                ++completed;
            else
                ++dropped_cb;
        })});
    }
    EXPECT_EQ(dropped_cb, 1) << "dropped op reports predictor miss";
    ctx().events().runUntil();
    EXPECT_EQ(completed, 4);
    EXPECT_EQ(proxy->droppedOps.value(), 1u);
}

TEST_F(PvProxyTest, TimingHitIsSynchronous)
{
    build(8, SimMode::Timing);
    proxy->access({0, 3, PvReqClass::Demand, fnOp([](PvLineView) {})});
    ctx().events().runUntil();
    bool done = false;
    proxy->access({0, 3, PvReqClass::Demand,
                   fnOp([&](PvLineView) { done = true; })});
    EXPECT_TRUE(done) << "PVCache hits complete with zero latency";
}

TEST_F(PvProxyTest, OperationsAreCountedByKind)
{
    build();
    peek(1);
    poke(1, 5);
    peek(2);
    EXPECT_EQ(proxy->operations.value(), 3u);
    EXPECT_EQ(proxy->pvCacheHits.value(), 1u);
    EXPECT_EQ(proxy->pvCacheMisses.value(), 2u);
}
