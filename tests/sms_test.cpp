/**
 * @file
 * End-to-end tests for the SMS prefetcher on a real L1+L2+DRAM
 * stack: pattern learning, prefetch streaming on re-trigger,
 * coverage accounting, trigger-block exclusion, and identical
 * engine behaviour with a virtualized PHT.
 */

#include <gtest/gtest.h>

#include "core/virt_pht.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "prefetch/sms.hh"

using namespace pvsim;

namespace {

struct SmsTest : public ::testing::Test {
    AddrMap amap{1ull << 30, 1, 64 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1;
    std::unique_ptr<InfinitePht> inf_pht;
    std::unique_ptr<PvProxy> proxy;
    std::unique_ptr<VirtualizedPht> virt_pht;
    std::unique_ptr<SmsPrefetcher> sms;

    void
    build(bool virtualized = false)
    {
        // Tear down the previous machine children-first: assigning
        // ctxp below destroys the old SimContext, and every
        // SimObject's stats group unregisters from it on
        // destruction — stale devices must not outlive it.
        sms.reset();
        virt_pht.reset();
        proxy.reset();
        inf_pht.reset();
        l1.reset();
        l2.reset();
        dram.reset();
        ctxp = std::make_unique<SimContext>(SimMode::Functional);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 400, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 256 * 1024;
        l2p.assoc = 8;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dram.get());

        CacheParams l1p;
        l1p.name = "l1d";
        l1p.sizeBytes = 8 * 1024;
        l1p.assoc = 2;
        l1 = std::make_unique<Cache>(*ctxp, l1p, &amap);
        l1->setMemSide(l2.get());
        l1->setLowerSlot(l2->attachClient(l1.get()));

        PatternHistoryTable *pht;
        if (virtualized) {
            proxy = std::make_unique<PvProxy>(
                *ctxp, PvProxyParams{}, amap.pvStart(0),
                64 * kBlockBytes);
            proxy->setMemSide(l2.get());
            // 15-bit tags at 64 sets: 10 ways fit.
            virt_pht = std::make_unique<VirtualizedPht>(*proxy, "pht",
                                                        64, 10);
            pht = virt_pht.get();
        } else {
            inf_pht = std::make_unique<InfinitePht>();
            pht = inf_pht.get();
        }
        SmsParams sp;
        sms = std::make_unique<SmsPrefetcher>(*ctxp, sp, l1.get(),
                                              pht);
        l1->setListener(sms.get());
    }

    void
    access(Addr addr, Addr pc, bool write = false)
    {
        Packet pkt(write ? MemCmd::WriteReq : MemCmd::ReadReq, addr,
                   0);
        pkt.pc = pc;
        l1->functionalAccess(pkt);
    }

    /** Touch a full region pattern from a trigger. */
    void
    visitRegion(Addr region_base, Addr pc,
                std::vector<unsigned> offsets)
    {
        for (unsigned off : offsets)
            access(region_base + Addr(off) * kBlockBytes, pc);
    }

    /** Force region generations to end by invalidating one block. */
    void
    endGeneration(Addr region_base, unsigned accessed_offset)
    {
        l1->recvInvalidate(region_base +
                           Addr(accessed_offset) * kBlockBytes);
    }
};

} // namespace

TEST_F(SmsTest, LearnsPatternAndStreamsOnRetrigger)
{
    build();
    const Addr region_a = 0x10000; // 2 KB aligned
    const Addr region_b = 0x20000;
    const Addr pc = 0x40001000;

    // Generation in region A: trigger offset 2, then 5, 9, 11.
    visitRegion(region_a, pc, {2, 5, 9, 11});
    endGeneration(region_a, 5);
    EXPECT_EQ(sms->generationsStored.value(), 1u);

    // New region, same trigger PC and offset: SMS must predict and
    // prefetch offsets 5, 9, 11 (the trigger block is excluded).
    uint64_t pf_before = l1->prefetchFills.value();
    access(region_b + 2 * kBlockBytes, pc);
    EXPECT_EQ(sms->phtHits.value(), 1u);
    EXPECT_EQ(l1->prefetchFills.value(), pf_before + 3);
    EXPECT_TRUE(l1->contains(region_b + 5 * kBlockBytes));
    EXPECT_TRUE(l1->contains(region_b + 9 * kBlockBytes));
    EXPECT_TRUE(l1->contains(region_b + 11 * kBlockBytes));
    EXPECT_FALSE(l1->contains(region_b + 7 * kBlockBytes));

    // The subsequent demand accesses are covered misses.
    access(region_b + 5 * kBlockBytes, pc);
    access(region_b + 9 * kBlockBytes, pc);
    EXPECT_EQ(l1->coveredMisses.value(), 2u);
}

TEST_F(SmsTest, DifferentTriggerOffsetIsDifferentKey)
{
    build();
    const Addr pc = 0x40001000;
    visitRegion(0x10000, pc, {2, 5, 9});
    endGeneration(0x10000, 5);

    // Same PC, different trigger offset: no prediction (the first
    // trigger of each generation also performed a miss lookup).
    access(0x30000 + 4 * kBlockBytes, pc);
    EXPECT_EQ(sms->phtMisses.value(), 2u);
    EXPECT_EQ(sms->phtHits.value(), 0u);
}

TEST_F(SmsTest, OneBlockGenerationsNeverReachPht)
{
    build();
    const Addr pc = 0x40002000;
    access(0x50000, pc);
    endGeneration(0x50000, 0);
    EXPECT_EQ(sms->generationsStored.value(), 0u);
    EXPECT_EQ(inf_pht->size(), 0u);
}

TEST_F(SmsTest, StoresParticipateInPatterns)
{
    build();
    const Addr pc = 0x40003000;
    access(0x60000 + 0 * kBlockBytes, pc, false);
    access(0x60000 + 3 * kBlockBytes, pc, true); // store
    endGeneration(0x60000, 3);
    EXPECT_EQ(sms->generationsStored.value(), 1u);

    access(0x68000 + 0 * kBlockBytes, pc);
    EXPECT_TRUE(l1->contains(0x68000 + 3 * kBlockBytes))
        << "pattern learned from a store must prefetch";
}

TEST_F(SmsTest, CapacityEvictionFromL1EndsGenerations)
{
    build();
    const Addr pc = 0x40004000;
    // Two-block generation, then thrash the L1 (8KB, 2-way) so one
    // of the accessed blocks is naturally evicted.
    visitRegion(0x10000, pc, {0, 1});
    // 64 sets; conflict with block at offset 0 (set index of
    // 0x10000>>6 = 0x400 -> set 0): addresses with same set index.
    for (int i = 1; i <= 3; ++i)
        access(0x10000 + Addr(i) * 64 * 64 * kBlockBytes, 0x999);
    EXPECT_GE(sms->generationsStored.value(), 1u)
        << "natural L1 eviction must close the generation";
}

TEST_F(SmsTest, VirtualizedEngineBehavesIdentically)
{
    // Run the same scripted scenario against the virtualized PHT:
    // the engine (and its counters) must behave the same.
    for (bool virt : {false, true}) {
        build(virt);
        const Addr pc = 0x40001000;
        visitRegion(0x10000, pc, {2, 5, 9, 11});
        endGeneration(0x10000, 5);
        access(0x20000 + 2 * kBlockBytes, pc);
        EXPECT_EQ(sms->phtHits.value(), 1u) << "virt=" << virt;
        EXPECT_TRUE(l1->contains(0x20000 + 5 * kBlockBytes))
            << "virt=" << virt;
        EXPECT_TRUE(l1->contains(0x20000 + 11 * kBlockBytes))
            << "virt=" << virt;
    }
}

TEST_F(SmsTest, VirtualizedPhtGeneratesL2Traffic)
{
    build(true);
    const Addr pc = 0x40001000;
    uint64_t pv_before = l2->requestsPv.value();
    visitRegion(0x10000, pc, {2, 5});
    endGeneration(0x10000, 2);
    // The insert had to fetch its PVTable set through the L2.
    EXPECT_GT(l2->requestsPv.value(), pv_before);
}

TEST_F(SmsTest, NextLinePrefetcherFetchesSequentialBlock)
{
    build();
    NextLinePrefetcher nl(*ctxp, "nl", l1.get());
    l1->setListener(&nl); // replace SMS for this test
    access(0x70000, 0x1);
    EXPECT_TRUE(l1->contains(0x70040))
        << "next line must be prefetched on a miss";
    uint64_t fills = l1->prefetchFills.value();
    access(0x70040, 0x1); // hit (prefetched): no new prefetch
    EXPECT_EQ(l1->prefetchFills.value(), fills);
}
