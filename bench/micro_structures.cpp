/**
 * @file
 * google-benchmark microbenchmarks of the core data structures: the
 * packed-set codec, PVCache access, dedicated PHT lookup, cache
 * functional access path, event queue throughput, and the synthetic
 * workload generator. These guard the simulator's own performance
 * (a slow simulator caps experiment scale).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pv_proxy.hh"
#include "core/virt_pht.hh"
#include "core/virt_table.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "prefetch/agt.hh"
#include "prefetch/pht.hh"
#include "sim/event_queue.hh"
#include "trace/synthetic_gen.hh"

using namespace pvsim;

static void
BM_CodecDecode(benchmark::State &state)
{
    PvSetCodec codec(11, 11, 32);
    PvSet set;
    set.numWays = 11;
    for (unsigned w = 0; w < 11; ++w)
        set.ways[w] = {w, 0x80000000u | w};
    uint8_t line[kBlockBytes];
    codec.encode(set, line);
    for (auto _ : state) {
        PvSet out = codec.decode(line);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_CodecDecode);

static void
BM_CodecEncode(benchmark::State &state)
{
    PvSetCodec codec(11, 11, 32);
    PvSet set;
    set.numWays = 11;
    for (unsigned w = 0; w < 11; ++w)
        set.ways[w] = {w, 0x80000000u | w};
    uint8_t line[kBlockBytes];
    for (auto _ : state) {
        codec.encode(set, line);
        benchmark::DoNotOptimize(line[0]);
    }
}
BENCHMARK(BM_CodecEncode);

static void
BM_SetAssocPhtLookup(benchmark::State &state)
{
    SetAssocPht pht({1024, 11});
    for (PhtKey k = 0; k < 11264; ++k)
        pht.insert(k % (1u << kPhtKeyBits), k | 1);
    PhtKey key = 0;
    for (auto _ : state) {
        SpatialPattern out = 0;
        pht.lookup(key, [&](bool, SpatialPattern p) { out = p; });
        benchmark::DoNotOptimize(out);
        key = (key + 977) & ((1u << kPhtKeyBits) - 1);
    }
}
BENCHMARK(BM_SetAssocPhtLookup);

static void
BM_PvProxyHit(benchmark::State &state)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);
    CacheParams l2p;
    l2p.name = "l2";
    l2p.sizeBytes = 1 << 20;
    l2p.assoc = 8;
    Cache l2(ctx, l2p, &amap);
    l2.setMemSide(&dram);
    PvProxy proxy(ctx, PvProxyParams{}, amap.pvStart(0),
                  1024 * kBlockBytes);
    proxy.registerEngine({"table0", 1024, 0, {}});
    proxy.setMemSide(&l2);
    proxy.access({0, 3, PvReqClass::Demand, [](PvLineView) {}});
    for (auto _ : state) {
        uint8_t byte = 0;
        proxy.access({0, 3, PvReqClass::Demand,
                      [&](PvLineView v) { byte = v.bytes[0]; }});
        benchmark::DoNotOptimize(byte);
    }
}
BENCHMARK(BM_PvProxyHit);

static void
BM_CacheFunctionalHit(benchmark::State &state)
{
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 64 * 1024);
    Dram dram(ctx, DramParams{}, &amap);
    CacheParams cp;
    cp.name = "l1";
    cp.sizeBytes = 64 * 1024;
    cp.assoc = 4;
    Cache l1(ctx, cp, &amap);
    l1.setMemSide(&dram);
    Packet warm(MemCmd::ReadReq, 0x1000, 0);
    l1.functionalAccess(warm);
    for (auto _ : state) {
        Packet pkt(MemCmd::ReadReq, 0x1000, 0);
        l1.functionalAccess(pkt);
        benchmark::DoNotOptimize(pkt.cmd);
    }
}
BENCHMARK(BM_CacheFunctionalHit);

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        uint64_t sum = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(Tick((i * 131) % 997),
                       [&sum, i] { sum += uint64_t(i); });
        q.runUntil();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_SyntheticWorkloadNext(benchmark::State &state)
{
    SyntheticWorkload gen(workloadPreset("oracle"), 0);
    TraceRecord rec;
    for (auto _ : state) {
        gen.next(rec);
        benchmark::DoNotOptimize(rec.addr);
    }
}
BENCHMARK(BM_SyntheticWorkloadNext);

/**
 * Shared-proxy contention: N tenants round-robin operations through
 * one PVProxy. Tracks the arbitration overhead of multi-tenancy —
 * per-engine stat bumps, fair-share accounting, line-index
 * translation — as tenant count grows (1 vs 2 vs 4).
 */
static void
BM_SharedProxyTenants(benchmark::State &state)
{
    unsigned tenants = unsigned(state.range(0));
    SimContext ctx(SimMode::Functional);
    AddrMap amap(1ull << 30, 1, 1024 * 1024);
    Dram dram(ctx, DramParams{}, &amap);
    CacheParams l2p;
    l2p.name = "l2";
    l2p.sizeBytes = 2 << 20;
    l2p.assoc = 8;
    Cache l2(ctx, l2p, &amap);
    l2.setMemSide(&dram);

    PvProxy proxy(ctx, PvProxyParams{}, amap.pvStart(0),
                  amap.pvBytesPerCore());
    proxy.setMemSide(&l2);

    std::vector<std::unique_ptr<VirtualizedAssocTable>> tables;
    PvSetCodec codec(10, 15, 32);
    for (unsigned t = 0; t < tenants; ++t) {
        unsigned id = proxy.registerEngine(
            {"t" + std::to_string(t), 64, codec.usedBits(), {}});
        tables.push_back(std::make_unique<VirtualizedAssocTable>(
            &proxy, id, codec));
    }
    // Warm one line per tenant so the loop measures PVCache hits.
    for (auto &t : tables)
        t->store(1, 0x80000001u);

    uint64_t i = 0;
    for (auto _ : state) {
        VirtualizedAssocTable &t = *tables[i % tenants];
        uint64_t out = 0;
        t.find(1, [&](bool, uint64_t p) { out = p; });
        benchmark::DoNotOptimize(out);
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SharedProxyTenants)->Arg(1)->Arg(2)->Arg(4);

static void
BM_AgtRecordAccess(benchmark::State &state)
{
    RegionGeometry geom(32);
    ActiveGenerationTable agt(AgtParams{}, geom,
                              [](PhtKey, SpatialPattern) {});
    Addr addr = 0;
    for (auto _ : state) {
        agt.recordAccess(0x1000 + (addr & 0xff), addr);
        addr += 0x40 * 5; // stride through regions
        benchmark::DoNotOptimize(addr);
    }
}
BENCHMARK(BM_AgtRecordAccess);

BENCHMARK_MAIN();
