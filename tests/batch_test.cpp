/**
 * @file
 * Equivalence tests for the batched simulation paths: batched trace
 * sources must reproduce the scalar record stream bit-for-bit,
 * stepping in chunks must produce the statistics of stepping one
 * record at a time, the chunked functional round-robin must
 * conserve every per-core stream, the harness worker pool must clamp
 * to the hardware and the job count, and the packet pool must
 * recycle storage without disturbing live-count bookkeeping, which
 * is per thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <sstream>
#include <thread>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "mem/packet_pool.hh"
#include "trace/synthetic_gen.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"

using namespace pvsim;

namespace {

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.gap == b.gap &&
           a.op == b.op;
}

std::string
statsDump(System &sys)
{
    std::ostringstream os;
    sys.ctx().dumpStats(os);
    return os.str();
}

/** runFunctional's round-robin at one record per turn: the
 *  record-by-record interleaving its chunks are held against. */
void
runRecordByRecord(System &sys, uint64_t refs_per_core)
{
    for (uint64_t i = 0; i < refs_per_core; ++i)
        for (int c = 0; c < sys.numCores(); ++c)
            ASSERT_EQ(sys.core(c).stepFunctionalBatch(1), 1u);
}

} // namespace

TEST(NextBatchTest, SyntheticBatchesMatchScalarStream)
{
    WorkloadParams wp = workloadPreset("apache");
    SyntheticWorkload scalar(wp, 0);
    SyntheticWorkload batched(wp, 0);

    // Awkward chunk sizes on purpose: the stream must be invariant
    // to how it is sliced.
    const size_t chunks[] = {1, 7, 256, 3, 64, 1000, 13};
    std::vector<TraceRecord> buf(1000);
    for (size_t n : chunks) {
        ASSERT_EQ(batched.nextBatch(buf.data(), n), n);
        for (size_t i = 0; i < n; ++i) {
            TraceRecord ref;
            ASSERT_TRUE(scalar.next(ref));
            ASSERT_TRUE(sameRecord(ref, buf[i]))
                << "stream diverged at chunk size " << n
                << " record " << i;
        }
    }
}

TEST(NextBatchTest, DefaultFallbackWalksNext)
{
    // The base-class default must equal repeated next() calls and
    // stop at end-of-trace.
    const std::string path = "batch_test_tmp1.pvtrace";
    {
        TraceFileWriter w(path);
        WorkloadParams wp = workloadPreset("qry2");
        SyntheticWorkload gen(wp, 1);
        TraceRecord rec;
        for (int i = 0; i < 100; ++i) {
            gen.next(rec);
            w.append(rec);
        }
    }
    TraceFileReader scalar(path);
    TraceFileReader batched(path);
    std::vector<TraceRecord> buf(64);
    size_t total = 0;
    for (;;) {
        size_t got = batched.nextBatch(buf.data(), buf.size());
        for (size_t i = 0; i < got; ++i) {
            TraceRecord ref;
            ASSERT_TRUE(scalar.next(ref));
            ASSERT_TRUE(sameRecord(ref, buf[i]));
        }
        total += got;
        if (got < buf.size())
            break;
    }
    EXPECT_EQ(total, 100u);
    TraceRecord rec;
    EXPECT_FALSE(scalar.next(rec)) << "scalar reader not exhausted";
    std::remove(path.c_str());
}

TEST(BatchedSteppingTest, IdenticalStatsToScalarSingleCore)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.prefetch = PrefetchMode::SmsVirtualized;

    System scalar(cfg);
    runRecordByRecord(scalar, 30000);

    System batched(cfg);
    // Slice the same 30000 records unevenly through the batch path.
    uint64_t consumed = 0;
    for (uint64_t n : {1ull, 999ull, 256ull, 13000ull}) {
        EXPECT_EQ(batched.core(0).stepFunctionalBatch(n), n);
        consumed += n;
    }
    EXPECT_EQ(batched.core(0).stepFunctionalBatch(30000 - consumed),
              30000 - consumed);

    EXPECT_EQ(statsDump(scalar), statsDump(batched))
        << "chunked stepping must reproduce record-by-record stats";
}

TEST(BatchedSteppingTest, RunFunctionalChunkInvariantSingleCore)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.prefetch = PrefetchMode::SmsDedicated;

    System serial(cfg);
    runRecordByRecord(serial, 25000);

    System chunked(cfg);
    chunked.runFunctional(25000);

    EXPECT_EQ(statsDump(serial), statsDump(chunked));
}

TEST(BatchedSteppingTest, RunFunctionalConservesPerCoreStreams)
{
    // Multi-core: the chunked round-robin interleaves the cores'
    // accesses at the shared L2 differently from a record-by-record
    // one, but each core's own stream (records, instructions,
    // loads/stores — all derived from the per-core generator alone)
    // must be untouched.
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.prefetch = PrefetchMode::None;

    System serial(cfg);
    runRecordByRecord(serial, 20000);

    System chunked(cfg);
    chunked.runFunctional(20000);

    for (int c = 0; c < cfg.numCores; ++c) {
        EXPECT_EQ(serial.core(c).recordsConsumed(), 20000u);
        EXPECT_EQ(chunked.core(c).recordsConsumed(), 20000u);
        EXPECT_EQ(serial.core(c).instructionsRetired(),
                  chunked.core(c).instructionsRetired());
        EXPECT_EQ(serial.core(c).loads.value(),
                  chunked.core(c).loads.value());
        EXPECT_EQ(serial.core(c).stores.value(),
                  chunked.core(c).stores.value());
        // L1s are private: per-core demand access counts conserve.
        EXPECT_EQ(serial.l1d(c).demandAccesses.value(),
                  chunked.l1d(c).demandAccesses.value());
    }
}

TEST(ThreadedHarnessTest, EffectiveJobsAreClamped)
{
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());

    // An oversubscribed request is clamped to the hardware (running
    // more workers than cores measured 0.77x of serial), and idle
    // workers beyond the batch count are never spawned.
    setenv("PVSIM_JOBS", "64", 1);
    EXPECT_EQ(harnessJobs(), 64u) << "the request itself is kept";
    EXPECT_LE(effectiveHarnessJobs(8), std::min(hw, 8u));
    EXPECT_EQ(effectiveHarnessJobs(1), 1u)
        << "one batch always takes the serial path";

    setenv("PVSIM_JOBS", "1", 1);
    EXPECT_EQ(effectiveHarnessJobs(1000), 1u);

    unsetenv("PVSIM_JOBS");
    EXPECT_GE(effectiveHarnessJobs(4), 1u);
    EXPECT_LE(effectiveHarnessJobs(4), std::min(hw, 4u));
}

TEST(PacketPoolTest, RecyclesStorageAndKeepsLiveCount)
{
    PacketPool &pool = PacketPool::local();
    int64_t live_before = Packet::liveCount();

    PacketPtr a = pool.alloc(MemCmd::ReadReq, 0x1000, 0);
    EXPECT_EQ(Packet::liveCount(), live_before + 1);
    pool.release(a);
    EXPECT_EQ(Packet::liveCount(), live_before);

    // Immediate realloc reuses the freed chunk, freshly constructed.
    PacketPtr b = pool.alloc(MemCmd::WriteReq, 0x2000, 1);
    EXPECT_EQ(static_cast<void *>(b), static_cast<void *>(a));
    EXPECT_EQ(b->cmd, MemCmd::WriteReq);
    EXPECT_EQ(b->addr, 0x2000u);
    EXPECT_FALSE(b->hasData());

    // Pool-allocated packets remain deletable with plain delete
    // (gem5-style ownership at module boundaries), and vice versa.
    delete b;
    PacketPtr c = new Packet(MemCmd::ReadReq, 0x3000, 0);
    pool.release(c);
    EXPECT_EQ(Packet::liveCount(), live_before);
}

TEST(PacketPoolTest, TimingRunLeaksNothingThroughThePool)
{
    int64_t before = Packet::liveCount();
    {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.prefetch = PrefetchMode::SmsVirtualized;
        cfg.mode = SimMode::Timing;
        System sys(cfg);
        sys.runTiming(4000);
    }
    EXPECT_EQ(Packet::liveCount(), before);
}

TEST(PacketPoolTest, LiveCountIsPerThread)
{
    // A packet a worker holds counts on the worker only: the batch
    // harness checks each job's packets against its own thread.
    const int64_t main_before = Packet::liveCount();
    std::promise<void> held, released;
    int64_t worker_start = 0, worker_holding = 0, worker_end = 0;
    std::thread worker([&] {
        worker_start = Packet::liveCount();
        PacketPtr pkt = allocPacket(MemCmd::ReadReq, 0x1000, 0);
        worker_holding = Packet::liveCount();
        held.set_value();
        released.get_future().wait();
        freePacket(pkt);
        worker_end = Packet::liveCount();
    });
    held.get_future().wait();
    EXPECT_EQ(Packet::liveCount(), main_before)
        << "the worker's packet moved the main thread's count";
    released.set_value();
    worker.join();
    EXPECT_EQ(worker_holding, worker_start + 1);
    EXPECT_EQ(worker_end, worker_start);
    EXPECT_EQ(Packet::liveCount(), main_before);
}

TEST(PacketPoolTest, RecyclesPayloadBuffers)
{
    PacketPool &pool = PacketPool::local();

    // A packet's payload goes back to the pool with the packet...
    Packet::Data *raw;
    {
        Packet pkt(MemCmd::ReadReq, 0x1000, 0);
        raw = &pkt.ensureData();
        (*raw)[0] = 0xAB;
        EXPECT_TRUE(pkt.hasData());
    }
    size_t free_after = pool.freeDataCount();
    EXPECT_GT(free_after, 0u) << "destroying the packet must "
                                 "recycle its payload";

    // ...and the next allocation reuses that buffer, zeroed.
    Packet pkt2(MemCmd::Writeback, 0x2000, 0);
    Packet::Data &d = pkt2.ensureData();
    EXPECT_EQ(static_cast<void *>(&d), static_cast<void *>(raw));
    EXPECT_EQ(d[0], 0u) << "recycled payloads arrive zeroed";
    EXPECT_EQ(pool.freeDataCount(), free_after - 1);
    EXPECT_GT(pool.reusedDataAllocs(), 0u);
}

TEST(PacketPoolTest, PvTrafficReusesPayloadBuffers)
{
    // A PV-heavy run must stop churning the heap for payloads: by
    // the end of a warm run, reuse dominates fresh allocation.
    // Both counters are snapshotted so only THIS run's allocations
    // are compared (they are process-cumulative).
    PacketPool &pool = PacketPool::local();
    uint64_t fresh_before = pool.freshDataAllocs();
    uint64_t reused_before = pool.reusedDataAllocs();
    {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.prefetch = PrefetchMode::SmsVirtualized;
        cfg.mode = SimMode::Timing;
        System sys(cfg);
        sys.runTiming(6000);
    }
    uint64_t fresh = pool.freshDataAllocs() - fresh_before;
    uint64_t reused = pool.reusedDataAllocs() - reused_before;
    EXPECT_GT(reused, fresh)
        << "payload reuse must dominate fresh allocation";
}
