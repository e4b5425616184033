/**
 * @file
 * Tests for the DRAM model: backing store semantics, traffic
 * classification (application vs. PV), timing latency and channel
 * spacing, and write-back handling.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/dram.hh"

using namespace pvsim;

namespace {

struct CollectingClient : public MemClient {
    std::vector<std::pair<PacketPtr, Tick>> responses;
    SimContext *ctx = nullptr;

    ~CollectingClient() override
    {
        for (auto &[p, t] : responses)
            delete p;
    }

    void recvResponse(PacketPtr pkt) override
    {
        responses.emplace_back(pkt, ctx ? ctx->curTick() : 0);
    }
    std::string clientName() const override { return "collector"; }
};

} // namespace

TEST(DramFunctional, ReadOfUnwrittenBlockHasNoPayload)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);

    Packet pkt(MemCmd::ReadReq, 0x1000, 0);
    dram.functionalAccess(pkt);
    EXPECT_TRUE(pkt.isResponse());
    EXPECT_TRUE(pkt.grantsWritable);
    EXPECT_FALSE(pkt.hasData());
    EXPECT_EQ(dram.readsApp.value(), 1u);
}

TEST(DramFunctional, WritebackStoresAndReadReturnsData)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);

    Packet::Data data;
    for (unsigned i = 0; i < kBlockBytes; ++i)
        data[i] = uint8_t(0xA0 + i);

    Packet wb(MemCmd::Writeback, 0x2000, 0);
    wb.setData(data.data());
    dram.functionalAccess(wb);
    EXPECT_TRUE(dram.hasBlock(0x2000));

    Packet rd(MemCmd::ReadReq, 0x2000, 0);
    dram.functionalAccess(rd);
    ASSERT_TRUE(rd.hasData());
    EXPECT_EQ(*rd.data, data);
}

TEST(DramFunctional, TrafficClassifiedByAddressRange)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 2, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);

    Packet app(MemCmd::ReadReq, 0x1000, 0);
    dram.functionalAccess(app);
    Packet pv(MemCmd::ReadReq, amap.pvStart(1), 0);
    dram.functionalAccess(pv);
    Packet wb(MemCmd::Writeback, amap.pvStart(0), 0);
    dram.functionalAccess(wb);

    EXPECT_EQ(dram.readsApp.value(), 1u);
    EXPECT_EQ(dram.readsPv.value(), 1u);
    EXPECT_EQ(dram.writesPv.value(), 1u);
    EXPECT_EQ(dram.writesApp.value(), 0u);
    EXPECT_EQ(dram.readBytes.value(), 2u * kBlockBytes);
    EXPECT_EQ(dram.writeBytes.value(), kBlockBytes);
}

TEST(DramTiming, ResponseArrivesAfterLatency)
{
    SimContext ctx(SimMode::Timing);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{"dram", 400, 0}, &amap);
    CollectingClient client;
    client.ctx = &ctx;

    auto *pkt = new Packet(MemCmd::ReadReq, 0x3000, 0);
    pkt->src = &client;
    EXPECT_TRUE(dram.recvRequest(pkt));
    ctx.events().runUntil();
    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(client.responses[0].second, 400u);
    EXPECT_TRUE(client.responses[0].first->isResponse());
}

TEST(DramTiming, ChannelSpacingSerializesBursts)
{
    SimContext ctx(SimMode::Timing);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{"dram", 100, 10}, &amap);
    CollectingClient client;
    client.ctx = &ctx;

    for (int i = 0; i < 4; ++i) {
        auto *pkt = new Packet(MemCmd::ReadReq,
                               0x1000 + Addr(i) * 64, 0);
        pkt->src = &client;
        dram.recvRequest(pkt);
    }
    ctx.events().runUntil();
    ASSERT_EQ(client.responses.size(), 4u);
    // Responses at 100, 110, 120, 130: spaced by the interval.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(client.responses[i].second, 100u + 10u * i);
}

TEST(DramTiming, WritebacksAreConsumedWithoutResponse)
{
    SimContext ctx(SimMode::Timing);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{"dram", 100, 0}, &amap);
    CollectingClient client;

    int64_t live = Packet::liveCount();
    auto *wb = new Packet(MemCmd::Writeback, 0x9000, 0);
    wb->src = &client;
    wb->ensureData()[0] = 7;
    EXPECT_TRUE(dram.recvRequest(wb));
    ctx.events().runUntil();
    EXPECT_EQ(client.responses.size(), 0u);
    EXPECT_EQ(Packet::liveCount(), live) << "writeback consumed";
    EXPECT_EQ(dram.readBlock(0x9000)[0], 7);
}
