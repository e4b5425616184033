/**
 * @file
 * Heap allocations on the warm timing miss path. This binary
 * replaces the global operator new and delete with counting
 * forwarders to malloc and free, runs a plain multi-core timing
 * machine through a warmup phase and a measured phase, and holds the
 * measured phase's allocations per record to a bound. Once warm, the
 * MSHR index, the MSHR target vectors, the packet pool and the event
 * pool allocate nothing. One allocation per miss anywhere on that
 * path costs this machine more than one per record, so the bound of
 * 0.5 catches it with room to spare over the few that remain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/system.hh"

namespace {

std::atomic<uint64_t> g_allocs{0};

} // namespace

// The two forwarders stay out of line: inlined, they let g++ see a
// malloc'd pointer reach operator delete, or operator new's reach
// free(), and warn of a mismatch.
__attribute__((noinline)) void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

using namespace pvsim;

TEST(AllocTest, WarmTimingMissPathAllocatesAlmostNothing)
{
    // The 64-core benchmark machine: Table 1 caches, four
    // workloads, no prefetcher, no PV, and L2 MSHRs that fill up.
    constexpr double kMaxAllocsPerRecord = 0.5;
    SystemConfig cfg;
    cfg.numCores = 64;
    cfg.workloadMix = {"apache", "qry2", "db2", "zeus"};
    cfg.prefetch = PrefetchMode::None;
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    sys.runTiming(300);
    sys.resetStats();

    const uint64_t before = g_allocs.load();
    sys.runTiming(300);
    const uint64_t allocs = g_allocs.load() - before;

    uint64_t records = 0;
    for (int c = 0; c < sys.numCores(); ++c)
        records += sys.core(c).recordsConsumed();
    ASSERT_EQ(records, 300u * 64u);
    const double per_record = double(allocs) / double(records);
    std::printf("%llu heap allocations over %llu measured records: "
                "%.3f per record\n",
                (unsigned long long)allocs, (unsigned long long)records,
                per_record);
    EXPECT_LT(per_record, kMaxAllocsPerRecord);
    EXPECT_GT(sys.l2().mshrRejects.value(), 0u)
        << "premise: the L2's MSHRs fill up";
}
