/**
 * @file
 * Simulation-loop throughput microbench: tracks the perf trajectory
 * of the hot paths this repo lives on — functional stepping (scalar
 * vs. batched), the trace layer (per-record virtual next() vs.
 * nextBatch, including bulk file replay), packet allocation (heap
 * vs. PacketPool), and the threaded matched-pair harness (serial
 * vs. PVSIM_JOBS-sharded, with a bit-identity check).
 *
 * Emits a BENCH_stepping.json summary (stdout + file) so successive
 * PRs can compare numbers. No pass/fail thresholds here: wall-clock
 * ratios depend on the host (a single-vCPU container shows ~1x for
 * the threaded harness by construction).
 *
 *   micro_stepping [--records N] [--alloc-iters N] [--batches N]
 *                  [--warmup-records N] [--measure-records N]
 *                  [--reps N] [--json-out FILE] [--smoke]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "mem/packet_pool.hh"
#include "trace/trace_io.hh"
#include "util/args.hh"

using namespace pvsim;
using Clock = std::chrono::steady_clock;

namespace {

double
secsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SystemConfig
oneCoreBaseline()
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.prefetch = PrefetchMode::None;
    return cfg;
}

/** Best-of-reps wall-clock of fn() in seconds (noise suppression). */
template <typename Fn>
double
bestOf(unsigned reps, Fn &&fn)
{
    double best = 1e300;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        best = std::min(best, secsSince(t0));
    }
    return best;
}

struct Pair {
    double baseRate = 0.0; ///< ops/s, reference path
    double fastRate = 0.0; ///< ops/s, optimized path
    double speedup() const
    {
        return baseRate > 0.0 ? fastRate / baseRate : 0.0;
    }
};

/** Functional stepping: scalar per-record loop vs. batched chunks. */
Pair
benchStepping(uint64_t records, unsigned reps)
{
    Pair p;
    double s = bestOf(reps, [&] {
        System sys(oneCoreBaseline());
        for (uint64_t i = 0; i < records; ++i)
            sys.core(0).stepFunctional();
    });
    p.baseRate = double(records) / s;
    s = bestOf(reps, [&] {
        System sys(oneCoreBaseline());
        sys.core(0).stepFunctionalBatch(records);
    });
    p.fastRate = double(records) / s;
    return p;
}

/** Trace generation alone: virtual next() vs. nextBatch chunks. */
Pair
benchTraceGen(uint64_t records, unsigned reps)
{
    WorkloadParams wp = workloadPreset("apache");
    Pair p;
    double s = bestOf(reps, [&] {
        SyntheticWorkload gen(wp, 0);
        TraceSource &src = gen; // force virtual dispatch
        TraceRecord rec;
        for (uint64_t i = 0; i < records; ++i)
            src.next(rec);
    });
    p.baseRate = double(records) / s;
    std::vector<TraceRecord> buf(TraceCore::kBatchRecords);
    s = bestOf(reps, [&] {
        SyntheticWorkload gen(wp, 0);
        TraceSource &src = gen;
        for (uint64_t done = 0; done < records;
             done += buf.size()) {
            src.nextBatch(buf.data(), buf.size());
        }
    });
    p.fastRate = double(records) / s;
    return p;
}

/** File replay: per-record fread vs. bulk nextBatch decode. */
Pair
benchTraceFile(uint64_t records, unsigned reps)
{
    const std::string path = "micro_stepping_tmp.pvtrace";
    {
        TraceFileWriter w(path);
        WorkloadParams wp = workloadPreset("apache");
        SyntheticWorkload gen(wp, 0);
        TraceRecord rec;
        for (uint64_t i = 0; i < records; ++i) {
            gen.next(rec);
            w.append(rec);
        }
        w.close();
    }
    Pair p;
    double s = bestOf(reps, [&] {
        TraceFileReader r(path);
        TraceRecord rec;
        while (r.next(rec)) {
        }
    });
    p.baseRate = double(records) / s;
    std::vector<TraceRecord> buf(TraceCore::kBatchRecords);
    s = bestOf(reps, [&] {
        TraceFileReader r(path);
        while (r.nextBatch(buf.data(), buf.size()) == buf.size()) {
        }
    });
    p.fastRate = double(records) / s;
    std::remove(path.c_str());
    return p;
}

/**
 * Packet allocation: heap new/delete vs. pool alloc/release, in
 * bursts of kBurst live packets (the simulator's in-flight shape).
 */
Pair
benchPacketAlloc(uint64_t iters, unsigned reps)
{
    constexpr size_t kBurst = 64;
    std::vector<PacketPtr> live(kBurst);
    Pair p;
    double s = bestOf(reps, [&] {
        for (uint64_t i = 0; i < iters; i += kBurst) {
            for (auto &pkt : live)
                pkt = new Packet(MemCmd::ReadReq, i * 64, 0);
            for (auto &pkt : live)
                delete pkt;
        }
    });
    p.baseRate = double(iters) / s;
    s = bestOf(reps, [&] {
        for (uint64_t i = 0; i < iters; i += kBurst) {
            for (auto &pkt : live)
                pkt = allocPacket(MemCmd::ReadReq, i * 64, 0);
            for (auto &pkt : live)
                freePacket(pkt);
        }
    });
    p.fastRate = double(iters) / s;
    return p;
}

/**
 * Payload (Packet::Data) allocation: heap make_unique churn vs. the
 * pool's recycled buffers — the shape of PV traffic, where most
 * packets carry a 64-byte payload for exactly one hop.
 */
Pair
benchPayloadAlloc(uint64_t iters, unsigned reps)
{
    constexpr size_t kBurst = 64;
    Pair p;
    double s = bestOf(reps, [&] {
        std::vector<std::unique_ptr<Packet::Data>> live(kBurst);
        for (uint64_t i = 0; i < iters; i += kBurst) {
            for (auto &d : live) {
                d = std::make_unique<Packet::Data>();
                d->fill(0);
            }
            for (auto &d : live)
                d.reset();
        }
    });
    p.baseRate = double(iters) / s;
    s = bestOf(reps, [&] {
        std::vector<Packet::DataPtr> live(kBurst);
        auto &pool = PacketPool::local();
        for (uint64_t i = 0; i < iters; i += kBurst) {
            for (auto &d : live)
                d.reset(pool.allocData());
            for (auto &d : live)
                d.reset();
        }
    });
    p.fastRate = double(iters) / s;
    return p;
}

struct HarnessResult {
    double serialSecs = 0.0;
    double threadedSecs = 0.0;
    unsigned jobsRequested = 0;
    unsigned jobsEffective = 0;
    bool serialFallback = false;
    bool bitIdentical = false;
    double speedup() const
    {
        return threadedSecs > 0.0 ? serialSecs / threadedSecs : 0.0;
    }
};

/**
 * Threaded matchedPairSpeedup vs. serial, with bit-identity check.
 * The "threaded" run requests one worker per batch; the drivers
 * clamp that to the hardware thread count (an oversubscribed pool
 * on this container measured 0.77x of serial) and fall back to the
 * serial path when only one worker survives the clamp — both the
 * requested and the effective counts are recorded so the JSON says
 * what was actually measured. Any ambient PVSIM_JOBS (CI sets one)
 * is restored afterwards, not clobbered.
 */
HarnessResult
benchHarness(unsigned batches, uint64_t warmup, uint64_t measure)
{
    SystemConfig base;
    base.numCores = 2;
    base.prefetch = PrefetchMode::None;
    SystemConfig pv = base;
    pv.prefetch = PrefetchMode::SmsVirtualized;

    const char *ambient_env = std::getenv("PVSIM_JOBS");
    const std::string ambient = ambient_env ? ambient_env : "";

    HarnessResult r;
    setenv("PVSIM_JOBS", "1", 1);
    auto t0 = Clock::now();
    SpeedupResult serial =
        matchedPairSpeedup(base, pv, warmup, measure, batches);
    r.serialSecs = secsSince(t0);

    r.jobsRequested = batches;
    setenv("PVSIM_JOBS", std::to_string(batches).c_str(), 1);
    r.jobsEffective = effectiveHarnessJobs(batches);
    r.serialFallback = r.jobsEffective <= 1;
    t0 = Clock::now();
    SpeedupResult threaded =
        matchedPairSpeedup(base, pv, warmup, measure, batches);
    r.threadedSecs = secsSince(t0);
    if (ambient_env)
        setenv("PVSIM_JOBS", ambient.c_str(), 1);
    else
        unsetenv("PVSIM_JOBS");

    r.bitIdentical = serial.meanPct == threaded.meanPct &&
                     serial.ciPct == threaded.ciPct &&
                     serial.batchPct == threaded.batchPct;
    return r;
}

void
emitPair(std::ostream &os, const char *name, const Pair &p,
         const char *unit)
{
    os << "  \"" << name << "\": {\"base_" << unit << "\": "
       << p.baseRate << ", \"fast_" << unit << "\": " << p.fastRate
       << ", \"speedup\": " << p.speedup() << "},\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const uint64_t records =
        args.getUint("records", smoke ? 50'000 : 2'000'000);
    const uint64_t alloc_iters =
        args.getUint("alloc-iters", smoke ? 100'000 : 5'000'000);
    const unsigned reps =
        unsigned(args.getUint("reps", smoke ? 1 : 3));
    const unsigned batches =
        unsigned(args.getUint("batches", 8));
    const uint64_t warmup =
        args.getUint("warmup-records", smoke ? 500 : 5'000);
    const uint64_t measure =
        args.getUint("measure-records", smoke ? 1'500 : 15'000);
    const std::string json_out =
        args.getString("json-out", "BENCH_stepping.json");
    args.rejectUnread();

    // The environment's worker request (PVSIM_JOBS or the hardware
    // count), captured before benchHarness overrides the variable:
    // the CI smoke exports PVSIM_JOBS, and the artifact must say
    // what parallelism the run was given vs. what survived the
    // clamp.
    const unsigned env_jobs_requested = harnessJobs();
    const unsigned env_jobs_effective =
        effectiveHarnessJobs(batches);

    Pair stepping = benchStepping(records, reps);
    Pair gen = benchTraceGen(records, reps);
    Pair file = benchTraceFile(std::min<uint64_t>(records, 500'000),
                               reps);
    Pair alloc = benchPacketAlloc(alloc_iters, reps);
    Pair payload = benchPayloadAlloc(alloc_iters, reps);
    HarnessResult harness = benchHarness(batches, warmup, measure);

    std::ostringstream js;
    js << "{\n  \"bench\": \"micro_stepping\",\n"
       << "  \"jobs_requested\": " << env_jobs_requested << ",\n"
       << "  \"jobs_effective\": " << env_jobs_effective << ",\n";
    emitPair(js, "step_functional", stepping, "recs_per_s");
    emitPair(js, "trace_gen", gen, "recs_per_s");
    emitPair(js, "trace_file_replay", file, "recs_per_s");
    emitPair(js, "packet_alloc", alloc, "allocs_per_s");
    emitPair(js, "payload_alloc", payload, "allocs_per_s");
    js << "  \"harness_matched_pair\": {\"serial_s\": "
       << harness.serialSecs
       << ", \"threaded_s\": " << harness.threadedSecs
       << ", \"jobs_requested\": " << harness.jobsRequested
       << ", \"jobs_effective\": " << harness.jobsEffective
       << ", \"serial_fallback\": "
       << (harness.serialFallback ? "true" : "false")
       << ", \"speedup\": " << harness.speedup()
       << ", \"bit_identical\": "
       << (harness.bitIdentical ? "true" : "false") << "}\n}\n";

    std::cout << js.str();
    std::ofstream out(json_out);
    out << js.str();

    if (!harness.bitIdentical) {
        std::cerr << "FAIL: threaded harness diverged from serial\n";
        return 1;
    }
    return 0;
}
