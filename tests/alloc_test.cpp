/**
 * @file
 * Heap allocations in the measured phase of every pvbench machine.
 * This binary replaces the global operator new and delete with
 * counting forwarders to malloc and free, runs each machine of
 * pvbench/workloads/ at its own warm-up and measure lengths (seed 1),
 * and holds the measured phase's allocations per record to a bound.
 * Once warm, the MSHR index and target vectors, the packet and event
 * pools, the send queues and the PV proxy's in-flight op storage
 * allocate nothing, and a PV operation is a value handed back to its
 * engine, not a closure. One allocation per miss or per PV operation
 * costs these machines more than one per record, so the bound of 0.5
 * catches it with room to spare over the few that remain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "config/scenario.hh"
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

// std::stable_sort takes its scratch buffer from the nothrow form;
// left to the runtime, it would not pair with the free() below.
__attribute__((noinline)) void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
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

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

using namespace pvsim;

namespace {

/** Each pvbench workload, by file name under pvbench/workloads. */
class AllocTest : public ::testing::TestWithParam<const char *>
{};

/** The machine's phase of `records` per core, as pvbench runs it. */
void
runPhase(System &sys, SimMode mode, uint64_t records)
{
    if (mode == SimMode::Timing)
        sys.runTiming(records);
    else
        sys.runFunctional(records);
}

} // namespace

TEST_P(AllocTest, MeasuredPhaseAllocatesAlmostNothing)
{
    constexpr double kMaxAllocsPerRecord = 0.5;
    const std::string workload = GetParam();
    const Scenario sc =
        loadScenarioFile(std::string(PVSIM_SOURCE_DIR) +
                         "/pvbench/workloads/" + workload + ".json");
    const bool timed = sc.kind == "timed";
    SystemConfig cfg = sc.system;
    cfg.mode = timed ? SimMode::Timing : SimMode::Functional;
    cfg.seedOffset = 1;
    const uint64_t warmup = timed ? sc.warmupRecords : sc.warmupRefs;
    const uint64_t measure = timed ? sc.measureRecords : sc.measureRefs;

    System sys(cfg);
    runPhase(sys, cfg.mode, warmup);
    sys.resetStats();

    const uint64_t before = g_allocs.load();
    runPhase(sys, cfg.mode, measure);
    const uint64_t allocs = g_allocs.load() - before;

    uint64_t records = 0;
    for (int c = 0; c < sys.numCores(); ++c)
        records += sys.core(c).recordsConsumed();
    ASSERT_EQ(records, measure * uint64_t(sys.numCores()));
    const double per_record = double(allocs) / double(records);
    std::printf("%s: %llu heap allocations over %llu measured "
                "records: %.3f per record\n",
                workload.c_str(), (unsigned long long)allocs,
                (unsigned long long)records, per_record);
    EXPECT_LT(per_record, kMaxAllocsPerRecord);
    if (workload == "many-core-plain") {
        EXPECT_GT(sys.l2().mshrRejects.value(), 0u)
            << "premise: the L2's MSHRs fill up";
    } else {
        EXPECT_GT(sys.pvProxy(0)->operations.value(), 0u)
            << "premise: the machine runs PV operations";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pvbench, AllocTest,
    ::testing::Values("many-core-plain", "pv-tenants",
                      "functional-sms-pv"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });
