/**
 * @file
 * Unit tests for the cache model: hits/misses, LRU, writebacks,
 * inclusion/back-invalidation, MSI coherence actions, prefetch
 * bookkeeping (covered misses / overpredictions), payload transport,
 * MSHR coalescing and timing latencies, and the MSHR file's index.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/packet_pool.hh"
#include "sim/sim_object.hh"
#include "util/random.hh"

using namespace pvsim;

namespace {

/** Records responses and coherence callbacks. */
struct TestClient : public MemClient {
    std::vector<PacketPtr> responses;
    std::vector<Addr> invalidated;
    std::vector<Addr> downgraded;

    ~TestClient() override { clearResponses(); }

    /** Free and forget every stored response (mid-test reset). */
    void
    clearResponses()
    {
        for (auto *p : responses)
            delete p;
        responses.clear();
    }

    void recvResponse(PacketPtr pkt) override
    {
        responses.push_back(pkt);
    }
    void recvInvalidate(Addr a) override { invalidated.push_back(a); }
    void recvDowngrade(Addr a) override { downgraded.push_back(a); }
    std::string clientName() const override { return "test_client"; }
};

/** Records listener callbacks. */
struct RecordingListener : public CacheListener {
    struct Access {
        Addr pc, addr;
        bool write, hit;
    };
    std::vector<Access> accesses;
    std::vector<Addr> evicted;
    std::vector<Addr> invalidated;

    void
    onAccess(Addr pc, Addr addr, bool w, bool h) override
    {
        accesses.push_back({pc, addr, w, h});
    }
    void onEvict(Addr a) override { evicted.push_back(a); }
    void onInvalidate(Addr a) override { invalidated.push_back(a); }
};

/** Functional-mode fixture: one cache in front of DRAM. */
struct FunctionalCacheTest : public ::testing::Test {
    SimContext ctx{SimMode::Functional};
    AddrMap amap{1ull << 30, 1, 64 * 1024};
    Dram dram{ctx, DramParams{"dram", 400, 0}, &amap};
    CacheParams params;
    std::unique_ptr<Cache> cache;

    void
    build(uint64_t size = 4 * 1024, unsigned assoc = 2)
    {
        params.name = "c";
        params.sizeBytes = size;
        params.assoc = assoc;
        cache = std::make_unique<Cache>(ctx, params, &amap);
        cache->setMemSide(&dram);
    }

    /** One functional access; returns true on hit. */
    bool
    access(Addr addr, bool write = false, Addr pc = 0x1000)
    {
        Packet pkt(write ? MemCmd::WriteReq : MemCmd::ReadReq, addr,
                   0);
        pkt.pc = pc;
        uint64_t hits = cache->demandHits.value();
        cache->functionalAccess(pkt);
        return cache->demandHits.value() == hits + 1;
    }
};

} // namespace

// ---------------------------------------------------------------------
// Functional basics
// ---------------------------------------------------------------------

TEST_F(FunctionalCacheTest, MissThenHit)
{
    build();
    EXPECT_FALSE(access(0x1000));
    EXPECT_TRUE(access(0x1000));
    EXPECT_TRUE(access(0x1030)); // same block
    EXPECT_FALSE(access(0x2000));
    EXPECT_EQ(cache->readMisses.value(), 2u);
    EXPECT_EQ(cache->readHits.value(), 2u);
}

TEST_F(FunctionalCacheTest, LruEvictsOldest)
{
    build(2 * kBlockBytes, 2); // 1 set, 2 ways
    access(0x0000);
    access(0x1000);
    access(0x0000);            // touch: 0x1000 is now LRU
    access(0x2000);            // evicts 0x1000
    EXPECT_TRUE(cache->contains(0x0000));
    EXPECT_FALSE(cache->contains(0x1000));
    EXPECT_TRUE(cache->contains(0x2000));
    EXPECT_EQ(cache->evictions.value(), 1u);
}

TEST_F(FunctionalCacheTest, DirtyEvictionWritesBack)
{
    build(2 * kBlockBytes, 2);
    access(0x0000, true); // store: dirty (DRAM grants writable)
    access(0x1000);
    access(0x2000); // evicts dirty 0x0000
    EXPECT_EQ(cache->writebacksOut.value(), 1u);
    EXPECT_EQ(dram.writesApp.value(), 1u);
}

TEST_F(FunctionalCacheTest, CleanEvictionDoesNotWriteBack)
{
    build(2 * kBlockBytes, 2);
    access(0x0000);
    access(0x1000);
    access(0x2000);
    EXPECT_EQ(cache->writebacksOut.value(), 0u);
    EXPECT_EQ(cache->cleanEvictsOut.value(), 1u);
    EXPECT_EQ(dram.writesApp.value(), 0u);
}

TEST_F(FunctionalCacheTest, StoreMissAllocatesWritableDirty)
{
    build();
    access(0x4000, true);
    const CacheBlk *blk = cache->peekBlock(0x4000);
    ASSERT_NE(blk, nullptr);
    EXPECT_TRUE(blk->writable);
    EXPECT_TRUE(blk->dirty);
}

TEST_F(FunctionalCacheTest, ListenerSeesAccessesAndEvictions)
{
    build(2 * kBlockBytes, 2);
    RecordingListener listener;
    cache->setListener(&listener);
    access(0x0000, false, 0xAA);
    access(0x1000);
    access(0x2000); // evicts 0x0000
    ASSERT_EQ(listener.accesses.size(), 3u);
    EXPECT_EQ(listener.accesses[0].pc, 0xAAu);
    EXPECT_FALSE(listener.accesses[0].hit);
    ASSERT_EQ(listener.evicted.size(), 1u);
    EXPECT_EQ(listener.evicted[0], 0x0000u);
}

// ---------------------------------------------------------------------
// Prefetch bookkeeping
// ---------------------------------------------------------------------

TEST_F(FunctionalCacheTest, PrefetchInstallsAndCovers)
{
    build();
    EXPECT_TRUE(cache->issuePrefetch(0x3000, 0x99));
    EXPECT_EQ(cache->prefetchFills.value(), 1u);
    const CacheBlk *blk = cache->peekBlock(0x3000);
    ASSERT_NE(blk, nullptr);
    EXPECT_TRUE(blk->wasPrefetched);

    EXPECT_TRUE(access(0x3000)); // demand hit on prefetched block
    EXPECT_EQ(cache->coveredMisses.value(), 1u);
    EXPECT_FALSE(cache->peekBlock(0x3000)->wasPrefetched);

    // Second access is an ordinary hit, not double-counted.
    access(0x3000);
    EXPECT_EQ(cache->coveredMisses.value(), 1u);
}

TEST_F(FunctionalCacheTest, RedundantPrefetchDropped)
{
    build();
    access(0x3000);
    EXPECT_FALSE(cache->issuePrefetch(0x3000, 0));
    EXPECT_EQ(cache->prefetchDropped.value(), 1u);
    EXPECT_EQ(cache->prefetchFills.value(), 0u);
}

TEST_F(FunctionalCacheTest, UnusedPrefetchCountsOverprediction)
{
    build(2 * kBlockBytes, 2);
    cache->issuePrefetch(0x0000, 0);
    access(0x1000);
    access(0x2000); // evicts the never-used prefetched block
    EXPECT_EQ(cache->overpredictions.value(), 1u);
}

// ---------------------------------------------------------------------
// Directory / coherence (L1s under an inclusive L2)
// ---------------------------------------------------------------------

namespace {

/** Two L1s under an inclusive L2 over DRAM, functional mode. */
struct CoherenceTest : public ::testing::Test {
    SimContext ctx{SimMode::Functional};
    AddrMap amap{1ull << 30, 2, 64 * 1024};
    Dram dram{ctx, DramParams{"dram", 400, 0}, &amap};
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1a, l1b;
    RecordingListener lis_a, lis_b;

    void
    SetUp() override
    {
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 16 * 1024;
        l2p.assoc = 4;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(ctx, l2p, &amap);
        l2->setMemSide(&dram);

        CacheParams l1p;
        l1p.sizeBytes = 2 * 1024;
        l1p.assoc = 2;
        l1a = std::make_unique<Cache>(ctx, l1p, &amap);
        l1p.name = "l1b";
        l1b = std::make_unique<Cache>(ctx, l1p, &amap);
        l1a->setMemSide(l2.get());
        l1a->setLowerSlot(l2->attachClient(l1a.get()));
        l1b->setMemSide(l2.get());
        l1b->setLowerSlot(l2->attachClient(l1b.get()));
        l1a->setListener(&lis_a);
        l1b->setListener(&lis_b);
    }

    void
    access(Cache &l1, Addr addr, bool write, int core)
    {
        Packet pkt(write ? MemCmd::WriteReq : MemCmd::ReadReq, addr,
                   core);
        pkt.pc = 0x1000;
        l1.functionalAccess(pkt);
    }
};

} // namespace

TEST_F(CoherenceTest, ReadSharingLeavesBothCopies)
{
    access(*l1a, 0x8000, false, 0);
    access(*l1b, 0x8000, false, 1);
    EXPECT_TRUE(l1a->contains(0x8000));
    EXPECT_TRUE(l1b->contains(0x8000));
    ASSERT_TRUE(l2->contains(0x8000));
    EXPECT_EQ(l2->sharerSlots(0x8000), (std::vector<unsigned>{0, 1}));
}

TEST_F(CoherenceTest, StoreMissInvalidatesOtherSharer)
{
    access(*l1a, 0x8000, false, 0);
    access(*l1b, 0x8000, true, 1); // GetX from B
    EXPECT_FALSE(l1a->contains(0x8000));
    EXPECT_TRUE(l1b->contains(0x8000));
    EXPECT_EQ(l2->invalidationsSent.value(), 1u);
    ASSERT_EQ(lis_a.invalidated.size(), 1u);
    EXPECT_EQ(lis_a.invalidated[0], 0x8000u);
}

TEST_F(CoherenceTest, StoreHitOnSharedBlockUpgrades)
{
    access(*l1a, 0x8000, false, 0);
    access(*l1b, 0x8000, false, 1);
    // A's copy is non-writable (shared): the store must upgrade and
    // kill B's copy.
    access(*l1a, 0x8000, true, 0);
    EXPECT_TRUE(l1a->contains(0x8000));
    EXPECT_TRUE(l1a->peekBlock(0x8000)->writable);
    EXPECT_FALSE(l1b->contains(0x8000));
}

TEST_F(CoherenceTest, ReadAfterRemoteDirtyRecalls)
{
    access(*l1a, 0x8000, true, 0); // A owns dirty
    access(*l1b, 0x8000, false, 1); // B reads: recall A's copy
    EXPECT_EQ(l2->recalls.value(), 1u);
    const CacheBlk *a_blk = l1a->peekBlock(0x8000);
    ASSERT_NE(a_blk, nullptr);
    EXPECT_FALSE(a_blk->writable) << "owner must be downgraded";
    EXPECT_FALSE(a_blk->dirty) << "dirty data merged into L2";
    EXPECT_TRUE(l2->peekBlock(0x8000)->dirty);
}

TEST_F(CoherenceTest, L2EvictionBackInvalidatesL1)
{
    // A holds X; B then thrashes X's L2 set (4-way, 64 sets,
    // stride 4096B) until the L2 evicts X. Inclusion requires the
    // L2 to pull X out of A's cache as it goes.
    const Addr x = 0x8000;
    access(*l1a, x, false, 0);
    ASSERT_TRUE(l1a->contains(x));
    for (int i = 1; i <= 4; ++i)
        access(*l1b, x + Addr(i) * 64 * 4096, false, 1);
    EXPECT_FALSE(l2->contains(x)) << "X must have been evicted";
    EXPECT_FALSE(l1a->contains(x)) << "inclusion violated";
    ASSERT_GE(lis_a.invalidated.size(), 1u);
    EXPECT_EQ(lis_a.invalidated[0], x);
}

TEST_F(CoherenceTest, CleanEvictKeepsDirectoryExact)
{
    // A reads two conflicting blocks in its tiny L1 (2KB, 2-way:
    // 16 sets, stride 1KB); the third access evicts the first.
    access(*l1a, 0x10000, false, 0);
    access(*l1a, 0x10000 + 16 * 1024, false, 0);
    access(*l1a, 0x10000 + 32 * 1024, false, 0);
    ASSERT_TRUE(l2->contains(0x10000));
    EXPECT_TRUE(l2->sharerSlots(0x10000).empty())
        << "clean eviction must clear the sharer bit";
    // Now a store by B must not send a useless invalidation to A.
    uint64_t inv_before = l2->invalidationsSent.value();
    access(*l1b, 0x10000, true, 1);
    EXPECT_EQ(l2->invalidationsSent.value(), inv_before);
}

namespace {

/** (client slot, block) per invalidation, in the order sent. */
using InvalidationLog = std::vector<std::pair<unsigned, Addr>>;

/** A directory client that logs the invalidations it receives. */
struct SlotClient : public MemClient {
    unsigned slot = 0;
    InvalidationLog *log = nullptr;

    void recvResponse(PacketPtr) override {}
    void recvInvalidate(Addr a) override { log->emplace_back(slot, a); }
    void recvDowngrade(Addr) override {}
    std::string clientName() const override { return "slot_client"; }
};

} // namespace

TEST_F(FunctionalCacheTest, DirectoryPast64ClientsWalksBothWords)
{
    // 70 clients take two sharer words per frame; slot 69 lives in
    // the second.
    params.directory = true;
    build(2 * kBlockBytes, 2); // 1 set, 2 ways
    InvalidationLog log;
    std::vector<SlotClient> clients(70);
    for (unsigned s = 0; s < clients.size(); ++s) {
        clients[s].slot = s;
        clients[s].log = &log;
        ASSERT_EQ(cache->attachClient(&clients[s]), int(s));
    }
    auto request = [&](MemCmd cmd, Addr addr, int slot) {
        Packet pkt(cmd, addr, 0);
        pkt.coherent = true;
        pkt.srcSlot = slot;
        cache->functionalAccess(pkt);
    };
    const Addr x = 0x4000;
    request(MemCmd::ReadReq, x, 3);
    request(MemCmd::ReadReq, x, 69);
    EXPECT_EQ(cache->sharerSlots(x), (std::vector<unsigned>{3, 69}));

    // 0x5000 takes the other way, and 0x6000 evicts x, the LRU.
    const uint64_t sent = cache->invalidationsSent.value();
    request(MemCmd::ReadReq, 0x5000, 0);
    request(MemCmd::ReadReq, 0x6000, 0);
    ASSERT_FALSE(cache->contains(x));
    EXPECT_EQ(log, (InvalidationLog{{3, x}, {69, x}}));
    EXPECT_EQ(cache->invalidationsSent.value(), sent + 2);

    // Back in both; a write from slot 69 leaves it the only holder.
    request(MemCmd::ReadReq, x, 3);
    request(MemCmd::ReadReq, x, 69);
    log.clear();
    request(MemCmd::WriteReq, x, 69);
    EXPECT_EQ(log, (InvalidationLog{{3, x}}));
    EXPECT_EQ(cache->sharerSlots(x), std::vector<unsigned>{69});
    EXPECT_EQ(cache->peekBlock(x)->ownerSlot, 69);
}

TEST_F(FunctionalCacheTest, DropPvWritebacksKeepsDirtyPvLinesOnChip)
{
    // Paper Section 2.2: a virtualization-aware L2 drops a dirty
    // PVTable victim instead of writing it off-chip.
    params.directory = true;
    params.dropPvWritebacks = true;
    build(2 * kBlockBytes, 2); // 1 set, 2 ways
    // The address alone makes a line PV: the cache asks its map.
    auto write_back = [&](Addr addr) {
        Packet wb(MemCmd::Writeback, addr, kInvalidCore);
        wb.coherent = false;
        cache->functionalAccess(wb);
    };
    auto read = [&](Addr addr) {
        Packet rd(MemCmd::ReadReq, addr, 0);
        cache->functionalAccess(rd);
    };

    const Addr pv = amap.pvStart(0);
    write_back(pv); // allocated dirty
    read(0x1000);
    read(0x2000); // evicts the dirty PV line
    ASSERT_FALSE(cache->contains(pv));
    EXPECT_EQ(cache->pvWritebacksDropped.value(), 1u);
    EXPECT_EQ(cache->writebacksOut.value(), 0u);
    EXPECT_EQ(dram.writesPv.value(), 0u);
    EXPECT_FALSE(dram.hasBlock(pv));

    write_back(0x3000); // a dirty application line
    read(0x4000);
    read(0x5000); // evicts it
    ASSERT_FALSE(cache->contains(0x3000));
    EXPECT_EQ(cache->pvWritebacksDropped.value(), 1u);
    EXPECT_EQ(cache->writebacksOut.value(), 1u);
    EXPECT_EQ(cache->writebacksApp.value(), 1u);
    EXPECT_EQ(dram.writesApp.value(), 1u);
    EXPECT_EQ(dram.writesPv.value(), 0u);
}

// ---------------------------------------------------------------------
// Data payload transport
// ---------------------------------------------------------------------

TEST_F(FunctionalCacheTest, PayloadRoundTripsThroughCacheAndDram)
{
    build();
    Addr addr = amap.pvStart(0); // a PV address carries real bytes

    Packet::Data data;
    for (unsigned i = 0; i < kBlockBytes; ++i)
        data[i] = uint8_t(i * 3 + 1);

    // Write back a data-carrying line into the cache (as a PVProxy
    // eviction would).
    {
        Packet wb(MemCmd::Writeback, addr, kInvalidCore);
        wb.coherent = false;
        wb.setData(data.data());
        cache->functionalAccess(wb);
    }
    EXPECT_TRUE(cache->contains(addr));

    // Read it back through the cache.
    {
        Packet rd(MemCmd::ReadReq, addr, kInvalidCore);
        rd.coherent = false;
        cache->functionalAccess(rd);
        ASSERT_TRUE(rd.hasData());
        EXPECT_EQ(*rd.data, data);
    }

    // Evict it (dirty) to DRAM and verify the backing store.
    Addr way_stride = cache->numSets() * kBlockBytes;
    {
        Packet r1(MemCmd::ReadReq, addr + way_stride, 0);
        cache->functionalAccess(r1);
        Packet r2(MemCmd::ReadReq, addr + 2 * way_stride, 0);
        cache->functionalAccess(r2);
    }
    EXPECT_FALSE(cache->contains(addr));
    EXPECT_TRUE(dram.hasBlock(addr));
    EXPECT_EQ(dram.readBlock(addr), data);
}

// ---------------------------------------------------------------------
// Timing mode
// ---------------------------------------------------------------------

namespace {

struct TimingCacheTest : public ::testing::Test {
    SimContext ctx{SimMode::Timing};
    AddrMap amap{1ull << 30, 1, 64 * 1024};
    DramParams dp{"dram", 400, 0};
    Dram dram{ctx, dp, &amap};
    CacheParams params;
    std::unique_ptr<Cache> cache;
    TestClient client;

    void
    build(unsigned mshrs = 4)
    {
        params.name = "c";
        params.sizeBytes = 4 * 1024;
        params.assoc = 2;
        params.tagLatency = 1;
        params.dataLatency = 1;
        params.numMshrs = mshrs;
        cache = std::make_unique<Cache>(ctx, params, &amap);
        cache->setMemSide(&dram);
    }

    PacketPtr
    makeRead(Addr addr)
    {
        auto *pkt = new Packet(MemCmd::ReadReq, addr, 0);
        pkt->src = &client;
        return pkt;
    }
};

} // namespace

TEST_F(TimingCacheTest, MissLatencyIncludesMemoryRoundTrip)
{
    build();
    ASSERT_TRUE(cache->recvRequest(makeRead(0x1000)));
    ctx.events().runUntil();
    ASSERT_EQ(client.responses.size(), 1u);
    // tag(1+1 via bank) + DRAM 400 + fill-forward data(1): >= 400.
    Tick t = ctx.curTick();
    EXPECT_GE(t, 400u);
    EXPECT_LE(t, 420u);
    EXPECT_TRUE(cache->contains(0x1000));
    EXPECT_TRUE(cache->quiesced());
}

TEST_F(TimingCacheTest, AcceptedLookupIsNotQuiesced)
{
    // An accepted request is in flight before any MSHR holds it:
    // its tag lookup has not resolved yet.
    build();
    ASSERT_TRUE(cache->quiesced());
    ASSERT_TRUE(cache->recvRequest(makeRead(0x1000)));
    EXPECT_EQ(cache->outstandingMisses(), 0u);
    EXPECT_FALSE(cache->quiesced());
    ctx.events().runUntil();
    EXPECT_TRUE(cache->quiesced());
}

TEST_F(TimingCacheTest, HitLatencyIsTagPlusData)
{
    build();
    cache->recvRequest(makeRead(0x1000));
    ctx.events().runUntil();
    client.clearResponses();

    Tick start = ctx.curTick();
    cache->recvRequest(makeRead(0x1000));
    ctx.events().runUntil();
    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(ctx.curTick() - start,
              params.tagLatency + params.dataLatency);
}

TEST_F(TimingCacheTest, MshrCoalescesSameBlockMisses)
{
    build();
    cache->recvRequest(makeRead(0x2000));
    cache->recvRequest(makeRead(0x2000));
    cache->recvRequest(makeRead(0x2010)); // same block
    ctx.events().runUntil();
    EXPECT_EQ(client.responses.size(), 3u);
    EXPECT_EQ(cache->mshrCoalesced.value(), 2u);
    // Only one fetch reached memory.
    EXPECT_EQ(dram.readsApp.value(), 1u);
}

TEST_F(TimingCacheTest, ForwardedPrefetchCoalescesWithoutStranding)
{
    // Regression: a PrefetchReq forwarded from an upper cache (its
    // MSHR stays in service until answered) used to be *dropped*
    // when it coalesced onto an in-flight miss for the same block
    // here — stranding the upper MSHR forever and deadlocking the
    // core the next time it touched that block.
    build();
    CacheParams up;
    up.name = "l1";
    up.sizeBytes = 1024;
    up.assoc = 2;
    up.tagLatency = 1;
    up.dataLatency = 1;
    Cache l1(ctx, up, &amap);
    l1.setMemSide(cache.get());
    l1.setLowerSlot(cache->attachClient(&l1));

    // A demand miss for B is in flight below us...
    ASSERT_TRUE(cache->recvRequest(makeRead(0x5000)));
    // ...when the upper cache prefetches the same block.
    ASSERT_TRUE(l1.issuePrefetch(0x5000, 0x42));
    EXPECT_EQ(l1.outstandingMisses(), 1u);

    ctx.events().runUntil();

    EXPECT_EQ(client.responses.size(), 1u)
        << "the demand target must still be answered";
    EXPECT_TRUE(l1.contains(0x5000))
        << "the forwarded prefetch must be answered and fill";
    EXPECT_TRUE(l1.quiesced())
        << "no MSHR may be stranded by coalescing";
    EXPECT_TRUE(cache->quiesced());
}

TEST_F(TimingCacheTest, MshrFullRejectsNewBlocks)
{
    build(2);
    EXPECT_TRUE(cache->recvRequest(makeRead(0x1000)));
    EXPECT_TRUE(cache->recvRequest(makeRead(0x2000)));
    PacketPtr third = makeRead(0x3000);
    EXPECT_FALSE(cache->recvRequest(third));
    EXPECT_EQ(cache->mshrRejects.value(), 1u);
    delete third;
    ctx.events().runUntil();
    EXPECT_EQ(client.responses.size(), 2u);
}

TEST_F(TimingCacheTest, MshrFullRetryWakesOnTheFreeingFill)
{
    // One frame, one MSHR. A read accepted as a hit while the MSHR
    // is busy loses its block to an allocate-on-writeback before its
    // lookup resolves, so its miss finds the MSHR file full. It must
    // retry when the fill frees the MSHR — the tick a per-cycle
    // retry would have succeeded at.
    build(1);
    params.sizeBytes = kBlockBytes;
    params.assoc = 1;
    params.tagLatency = 2;
    cache = std::make_unique<Cache>(ctx, params, &amap);
    cache->setMemSide(&dram);
    struct Sink : MemClient {
        SimContext *ctx;
        std::vector<std::pair<Addr, Tick>> at;
        void
        recvResponse(PacketPtr pkt) override
        {
            at.emplace_back(pkt->addr, ctx->curTick());
            delete pkt;
        }
        std::string clientName() const override { return "sink"; }
    } sink;
    sink.ctx = &ctx;
    auto read = [&](Addr a) {
        auto *pkt = new Packet(MemCmd::ReadReq, a, 0);
        pkt->src = &sink;
        return pkt;
    };
    const Addr a = 0x1000, b = 0x2000, c = 0x3000;
    ASSERT_TRUE(cache->recvRequest(read(b)));
    ctx.events().runUntil();
    sink.at.clear();

    const Tick start = ctx.curTick();
    ASSERT_TRUE(cache->recvRequest(read(a)));
    ctx.events().runUntil(start + params.tagLatency);
    ASSERT_EQ(cache->outstandingMisses(), 1u);
    ASSERT_TRUE(cache->recvRequest(read(b))) << "a hit is accepted";
    PacketPtr wb = allocPacket(MemCmd::Writeback, c, kInvalidCore);
    ASSERT_TRUE(cache->recvRequest(wb));
    ASSERT_FALSE(cache->contains(b)) << "the writeback evicted b";
    ctx.events().runUntil();

    ASSERT_EQ(sink.at.size(), 2u);
    EXPECT_EQ(sink.at[0].first, a);
    EXPECT_EQ(sink.at[1].first, b);
    // a: lookup at +2, DRAM 400, data 1. b's retry rides a's fill
    // (same tick), then its own DRAM trip and data cycle.
    EXPECT_EQ(sink.at[0].second - start, 403u);
    EXPECT_EQ(sink.at[1].second - start, 803u);
    EXPECT_TRUE(cache->quiesced());
    EXPECT_EQ(ctx.events().numParked(), 0u);
}

TEST_F(TimingCacheTest, ParkedSendCoalescesOntoMshrAllocatedWhileFull)
{
    // Two MSHRs, two banks. Upper caches x and y miss on blocks a
    // and b, and their lookups fill the budget. Upper cache z then
    // misses on b: refused, its send parks. At +2 both lookups
    // resolve into MSHRs, so the budget stays full, but b now has
    // one: z's parked send must coalesce onto it that tick, as a
    // per-cycle retry would, not wait for a fill to free an MSHR.
    build(2);
    params.banks = 2;
    params.tagLatency = 2;
    cache = std::make_unique<Cache>(ctx, params, &amap);
    cache->setMemSide(&dram);
    CacheParams up;
    up.sizeBytes = 1024;
    up.assoc = 2;
    up.tagLatency = 1;
    up.dataLatency = 1;
    std::vector<std::unique_ptr<Cache>> l1s;
    for (const char *name : {"x", "y", "z"}) {
        up.name = name;
        l1s.push_back(std::make_unique<Cache>(ctx, up, &amap));
        l1s.back()->setMemSide(cache.get());
        l1s.back()->setLowerSlot(cache->attachClient(l1s.back().get()));
    }
    struct Sink : MemClient {
        SimContext *ctx;
        std::vector<std::pair<Addr, Tick>> at;
        void
        recvResponse(PacketPtr pkt) override
        {
            at.emplace_back(pkt->addr, ctx->curTick());
            delete pkt;
        }
        std::string clientName() const override { return "sink"; }
    } sink;
    sink.ctx = &ctx;
    auto read = [&](Addr addr) {
        auto *pkt = new Packet(MemCmd::ReadReq, addr, 0);
        pkt->src = &sink;
        return pkt;
    };
    const Addr a = 0x1000, b = 0x1040; // banks 0 and 1

    ASSERT_FALSE(l1s[0]->probeAccess(read(a)));
    ASSERT_FALSE(l1s[1]->probeAccess(read(b)));
    ASSERT_FALSE(l1s[2]->probeAccess(read(b)));
    EXPECT_EQ(cache->mshrRejects.value(), 1u);
    EXPECT_EQ(l1s[2]->sendQueue().size(), 1u) << "z's send is refused";
    ctx.events().runUntil(2);
    EXPECT_EQ(cache->outstandingMisses(), 2u);
    EXPECT_TRUE(l1s[2]->sendQueue().empty())
        << "z's send coalesces the tick b gets its MSHR";
    ctx.events().runUntil();

    // One refusal at 0, one credited for the skipped poll at 1.
    EXPECT_EQ(cache->mshrRejects.value(), 2u);
    EXPECT_EQ(cache->mshrCoalesced.value(), 1u);
    EXPECT_EQ(dram.readsApp.value(), 2u) << "one fetch for b";
    ASSERT_EQ(sink.at.size(), 3u);
    // Lookups at +2, DRAM 400, L2 data 1, L1 data 1; z's lookup
    // (accepted at 2, resolved at 4) joins b's MSHR, so y and z get
    // b with the same fill.
    EXPECT_EQ(sink.at[0], (std::pair<Addr, Tick>{a, 404}));
    EXPECT_EQ(sink.at[1], (std::pair<Addr, Tick>{b, 404}));
    EXPECT_EQ(sink.at[2], (std::pair<Addr, Tick>{b, 404}));
    for (const auto &l1 : l1s)
        EXPECT_TRUE(l1->quiesced());
    EXPECT_TRUE(cache->quiesced());
    EXPECT_EQ(ctx.events().numParked(), 0u);
}

TEST_F(TimingCacheTest, ProbeAccessHitIsSynchronous)
{
    build();
    cache->recvRequest(makeRead(0x1000));
    ctx.events().runUntil();
    client.clearResponses();

    PacketPtr pkt = makeRead(0x1000);
    EXPECT_TRUE(cache->probeAccess(pkt));
    EXPECT_TRUE(pkt->isResponse());
    delete pkt;
}

TEST_F(TimingCacheTest, ProbeAccessMissRespondsLater)
{
    build();
    PacketPtr pkt = makeRead(0x5000);
    EXPECT_FALSE(cache->probeAccess(pkt));
    EXPECT_EQ(client.responses.size(), 0u);
    ctx.events().runUntil();
    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(client.responses[0], pkt);
    EXPECT_TRUE(pkt->isResponse());
}

TEST_F(TimingCacheTest, PrefetchMissFillsWithoutResponse)
{
    build();
    EXPECT_TRUE(cache->issuePrefetch(0x7000, 0x1));
    ctx.events().runUntil();
    EXPECT_EQ(client.responses.size(), 0u);
    ASSERT_TRUE(cache->contains(0x7000));
    EXPECT_TRUE(cache->peekBlock(0x7000)->wasPrefetched);
}

TEST_F(TimingCacheTest, DemandJoiningPrefetchCountsLateCovered)
{
    build();
    cache->issuePrefetch(0x7000, 0x1);
    PacketPtr pkt = makeRead(0x7000);
    EXPECT_FALSE(cache->probeAccess(pkt));
    ctx.events().runUntil();
    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(cache->lateCovered.value(), 1u);
    // Only one memory fetch for the block.
    EXPECT_EQ(dram.readsApp.value(), 1u);
}

TEST_F(TimingCacheTest, NoLeaksAfterTimingRun)
{
    int64_t before = Packet::liveCount();
    build();
    // Issue 20 distinct-block reads, retrying rejected ones the way
    // a real client would (the 4-entry MSHR file pushes back).
    std::vector<PacketPtr> waiting;
    for (int i = 0; i < 20; ++i)
        waiting.push_back(makeRead(Addr(0x1000 + i * 0x1000)));
    while (!waiting.empty()) {
        PacketPtr pkt = waiting.back();
        if (cache->recvRequest(pkt))
            waiting.pop_back();
        else
            ctx.events().runOneTick();
    }
    ctx.events().runUntil();
    EXPECT_EQ(client.responses.size(), 20u);
    client.clearResponses();
    EXPECT_EQ(Packet::liveCount(), before);
}

// ---------------------------------------------------------------------
// MSHR file index
// ---------------------------------------------------------------------

TEST(MshrFileTest, RandomOpsMatchAMapModelUnderCollisions)
{
    // Eight entries, sixteen slots. Most addresses share one of three
    // home slots: two adjacent ones, whose probe runs merge, and the
    // last slot, whose run wraps to slot 0. Entries leave in random
    // order, so a deletion that broke a run would hide a later key
    // of it from find().
    MshrFile file(8);
    ASSERT_EQ(file.numSlots(), 16u);
    std::vector<Addr> pool;
    for (size_t home : {size_t(3), size_t(4), file.numSlots() - 1}) {
        unsigned found = 0;
        for (Addr a = 0; found < 6; a += kBlockBytes) {
            if (file.homeSlot(a) == home) {
                pool.push_back(a);
                ++found;
            }
        }
    }
    for (Addr a = 0x100000; pool.size() < 24; a += 7 * kBlockBytes)
        pool.push_back(a);

    // Entry i is first[i]: an empty file hands out entries in order.
    std::vector<Mshr *> first;
    for (unsigned i = 0; i < file.capacity(); ++i)
        first.push_back(&file.allocate(pool[i]));
    EXPECT_TRUE(file.full());
    for (unsigned i = 0; i < file.capacity(); ++i) {
        EXPECT_EQ(first[i], first[0] + i);
        file.deallocate(*first[i]);
    }

    std::map<Addr, unsigned> model; // block -> entry index
    Rng rng(25);
    unsigned full_refusals = 0, allocs = 0, deallocs = 0;
    for (int op = 0; op < 20000; ++op) {
        const Addr a = pool[rng.below(pool.size())];
        const auto it = model.find(a);
        const uint64_t kind = rng.below(10);
        if (kind < 5 && it == model.end()) {
            if (file.full()) {
                ASSERT_EQ(model.size(), file.capacity());
                ++full_refusals;
                continue;
            }
            // The lowest entry the model does not hold.
            std::vector<bool> taken(file.capacity());
            for (const auto &kv : model)
                taken[kv.second] = true;
            unsigned lowest = 0;
            while (taken[lowest])
                ++lowest;
            Mshr &m = file.allocate(a);
            ASSERT_EQ(&m, first[lowest]) << "op " << op;
            EXPECT_EQ(m.blockAddr, a);
            model[a] = lowest;
            ++allocs;
        } else if (kind < 9 && it != model.end()) {
            file.deallocate(*first[it->second]);
            model.erase(it);
            ++deallocs;
        }
        ASSERT_EQ(file.used(), model.size()) << "op " << op;
        for (Addr b : pool) {
            const auto m = model.find(b);
            ASSERT_EQ(file.find(b),
                      m == model.end() ? nullptr : first[m->second])
                << "op " << op << ", block " << std::hex << b;
        }
    }
    EXPECT_GT(full_refusals, 100u);
    EXPECT_GT(allocs, 2000u);
    EXPECT_GT(deallocs, 2000u);
}
