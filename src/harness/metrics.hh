/**
 * @file
 * Aggregated experiment metrics: coverage triples (Figures 4/5),
 * traffic summaries (Figures 6-8, 10), aggregate IPC and matched-pair
 * speedups with confidence intervals (Figures 9/11, using the
 * batch-means analogue of the paper's matched-pair sampling); one
 * timing run's scoreboard; the PVSIM_JOBS worker pool; and the sweep
 * axes of the `fig9` and `qos` scenario kinds, with the builders that
 * turn a scenario's `system` into each sweep machine (the rows are
 * written by harness/paper.hh).
 */

#ifndef PVSIM_HARNESS_METRICS_HH
#define PVSIM_HARNESS_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "trace/workload.hh"

namespace pvsim {

/**
 * Prefetcher effectiveness, normalized the way the paper plots
 * Figure 4: covered + uncovered = 100% of the L1 read misses the
 * application would take without prefetching; overpredictions can
 * push the bar above 100%.
 */
struct CoverageMetrics {
    uint64_t covered = 0;   ///< read misses eliminated by prefetch
    uint64_t uncovered = 0; ///< read misses remaining
    uint64_t overpredictions = 0;

    uint64_t denominator() const { return covered + uncovered; }

    double
    coveredPct() const
    {
        return denominator() ? 100.0 * double(covered) /
                                   double(denominator())
                             : 0.0;
    }

    double uncoveredPct() const
    {
        return denominator() ? 100.0 - coveredPct() : 0.0;
    }

    double
    overpredictionPct() const
    {
        return denominator() ? 100.0 * double(overpredictions) /
                                   double(denominator())
                             : 0.0;
    }
};

/** Sum L1D coverage counters across cores. */
CoverageMetrics coverageOf(System &sys);

/** Memory-system traffic counters for one run. */
struct TrafficMetrics {
    uint64_t l2Requests = 0;     ///< all requests arriving at L2
    uint64_t l2RequestsPv = 0;   ///< ... of which PVProxy traffic
    uint64_t l2MissesApp = 0;
    uint64_t l2MissesPv = 0;
    uint64_t l2WritebacksApp = 0; ///< L2 -> DRAM, application blocks
    uint64_t l2WritebacksPv = 0;
    uint64_t offChipReadBytes = 0;
    uint64_t offChipWriteBytes = 0;

    uint64_t l2Misses() const { return l2MissesApp + l2MissesPv; }
    uint64_t
    l2Writebacks() const
    {
        return l2WritebacksApp + l2WritebacksPv;
    }
    uint64_t
    offChipBytes() const
    {
        return offChipReadBytes + offChipWriteBytes;
    }
};

TrafficMetrics trafficOf(System &sys);

/** Percentage increase of `now` over `base` (0 when base is 0). */
double pctIncrease(uint64_t base, uint64_t now);

/** Aggregate user IPC (paper Section 4.1's throughput metric). */
double aggregateIpc(uint64_t total_insts, Tick elapsed);

/** Mean and 95% confidence half-width over a sample. */
struct MeanCi {
    double mean = 0.0;
    double halfWidth = 0.0;
    size_t n = 0;
};

MeanCi meanCi(const std::vector<double> &samples);

/**
 * Matched-pair speedup of a config against a baseline, batch-means
 * style: each batch b runs both configs with identical seeds
 * (seedOffset = b) and compares their measured IPC.
 */
struct SpeedupResult {
    double meanPct = 0.0;
    double ciPct = 0.0; ///< 95% half-width
};

/**
 * Everything one timing run reports: the IPC plus the measure-phase
 * counters of the BTB, the per-tenant proxy pressure and the host
 * cost, each summed over cores. A figure folds its runs with += and
 * derives every row field from the sums.
 */
struct TimedRun {
    double ipc = 0.0;
    uint64_t btbHits = 0;
    uint64_t btbMispredicts = 0;
    /** Lookups unanswered at fetch (virtualized BTB waiting on its
     *  PV fill) — the availability redirects QoS protects. */
    uint64_t btbUnavailable = 0;
    /** Virtualized-BTB tenant: proxy operations, drops, demand
     *  fills and the ticks those fills took (0 on a dedicated BTB). */
    uint64_t btbOps = 0;
    uint64_t btbDrops = 0;
    uint64_t btbFills = 0;
    uint64_t btbFillTicks = 0;
    /** AGT aggressor tenant: proxy operations and drops. */
    uint64_t aggressorOps = 0;
    uint64_t aggressorDrops = 0;
    /** PVCache locality prefetch and victim buffer (all tenants). */
    uint64_t prefetchFills = 0;
    uint64_t prefetchUseful = 0;
    uint64_t prefetchDrops = 0;
    uint64_t victimHits = 0;
    /** Wall-clock seconds of the measure phase (host time). */
    double wallSeconds = 0.0;
    /** Trace records consumed in the measure phase. */
    uint64_t records = 0;
    /** Events executed during the measure phase (a diagnostic: a
     *  wasted event raises it without simulating anything more). */
    uint64_t eventsExecuted = 0;

    /** Add every field, ipc included: the sum of n runs divided by
     *  n in ipc is their mean IPC. */
    TimedRun &operator+=(const TimedRun &o);

    /** Simulator throughput: measured records per wall second. */
    double
    recordsPerSec() const
    {
        return wallSeconds > 0.0 ? double(records) / wallSeconds : 0.0;
    }

    /** Taken-branch target hit rate of the attached BTBs. */
    double
    btbHitRate() const
    {
        uint64_t scored = btbHits + btbMispredicts;
        return scored ? double(btbHits) / double(scored) : 0.0;
    }

    /** Fraction of scored taken branches whose prediction was not
     *  available at fetch time. */
    double
    btbAvailabilityRedirectRate() const
    {
        uint64_t scored = btbHits + btbMispredicts;
        return scored ? double(btbUnavailable) / double(scored)
                      : 0.0;
    }
};

/** Per-core tenant contracts of a timed run: core c's proxy gives
 *  its table t the contract [c][t] before the first event. */
using TenantContracts = std::vector<std::vector<PvTenantQos>>;

/** One timing run: warmup, reset stats, measure. When `cores` is
 *  given, it receives each core's counters (every field but ipc,
 *  wall time and events). */
TimedRun timedRun(SystemConfig cfg, uint64_t warmup_records,
                  uint64_t measure_records,
                  const TenantContracts &contracts = {},
                  std::vector<TimedRun> *cores = nullptr);

/** timedRun(), keeping only the IPC. */
double timedIpc(SystemConfig cfg, uint64_t warmup_records,
                uint64_t measure_records);

/**
 * Requested worker threads for forEachBatch: the PVSIM_JOBS
 * environment variable when set (>= 1), else the hardware thread
 * count. Each planner job runs a fully self-contained System (its
 * own SimContext, event queue and RNGs) seeded from its config
 * alone, so the sharded results are bit-identical to a serial run
 * regardless of the worker count.
 */
unsigned harnessJobs();

/**
 * Worker threads the harness actually spawns for `batches` batches:
 * harnessJobs() clamped to the hardware thread count (threads
 * beyond physical cores only add contention — an oversubscribed
 * pool measured 0.77x of serial) and to the batch count (idle
 * workers are pure overhead). When this is 1, the harness takes the
 * serial path outright — no pool, no atomics.
 */
unsigned effectiveHarnessJobs(unsigned batches);

/**
 * Run body(j) for every j in [0, jobs) over effectiveHarnessJobs(jobs)
 * worker threads (serially when that is 1). When each body(j) builds
 * its own System from inputs that depend on j alone, the results are
 * bit-identical for any worker count and any OS scheduling.
 */
void forEachBatch(unsigned jobs,
                  const std::function<void(unsigned)> &body);

/** Matched-pair speedup from per-batch IPCs: batch b compares
 *  ipcs[b] with base_ipcs[b] (the same seeds). */
SpeedupResult speedupFromIpcs(const std::vector<double> &base_ipcs,
                              const std::vector<double> &ipcs);

// ---- Figure 9-style BTB virtualization sweep --------------------------

/**
 * Sentinel for Fig9Options::edgeStabilities: run the mix's own
 * branch-profile stability (the recorded default).
 */
constexpr double kFig9MixStability = -1.0;

/** The axes of the dedicated-vs-virtualized BTB IPC experiment. */
struct Fig9Options {
    /** Mixes to run; empty means presetMixes(). */
    std::vector<WorkloadMix> mixes;
    /**
     * Successor-edge stabilities to sweep: each value overrides the
     * mixes' branch-profile stability for one pass over all mixes
     * (kFig9MixStability keeps the mix's own value). Empty means
     * {kFig9MixStability} — one pass at the recorded defaults.
     */
    std::vector<double> edgeStabilities;
};

/**
 * One side of one mix's matched pair: `system` running the mix's
 * workloads and branch profile (edge_stability overrides its
 * stability unless it is kFig9MixStability) with no data prefetcher
 * and the BTB in `mode` (BtbMode::Dedicated or Virtualized). Both
 * sides get the same pvBytesPerCore, raised if needed to fit the
 * BTB's PVTable, so their address maps — and with them the timing —
 * are identical.
 */
SystemConfig fig9Config(const SystemConfig &system, const WorkloadMix &mix,
                        BtbMode mode,
                        double edge_stability = kFig9MixStability);

/** The stability fig9Config(.., mix, .., edge_stability) runs; 0 on
 *  a mix without a branch profile, whose streams are flat. */
double fig9Stability(const WorkloadMix &mix, double edge_stability);

// ---- Per-tenant QoS contention sweep ----------------------------------

/**
 * One weight setting of the QoS contention experiment: the
 * contracts of the latency-critical virtualized BTB and of the
 * bandwidth-hungry AGT aggressor sharing its per-core proxy.
 */
struct QosSetting {
    std::string label;      ///< e.g. "4:1" or "equal+floor"
    PvTenantQos btb;        ///< latency-critical tenant
    PvTenantQos aggressor;  ///< bandwidth-hungry tenant
};

/**
 * The standard sweep: equal weights (the baseline the others are
 * compared against), 2:1 / 4:1 / 8:1 in the BTB's favor, and an
 * equal-weight setting that protects the BTB through hard floors
 * instead.
 */
std::vector<QosSetting> presetQosSettings();

/** The axes of the BTB-vs-aggressor QoS protection experiment. */
struct QosOptions {
    /** AGT aggressor geometry: every data reference is one RMW
     *  proxy operation, so this tenant is bandwidth-hungry by
     *  construction. */
    unsigned agtSets = 512;
    /** Settings to run; empty means presetQosSettings(). The first
     *  is the baseline the deltas are computed against. */
    std::vector<QosSetting> settings;
};

/**
 * One QoS run: `system` running the "mixed" preset mix with no data
 * prefetcher, a virtualized BTB under s.btb and an AGT aggressor of
 * opt.agtSets sets under s.aggressor on every core's proxy, its
 * pvBytesPerCore raised if needed to fit both PVTables.
 */
SystemConfig qosConfig(const SystemConfig &system, const QosOptions &opt,
                       const QosSetting &s);

/** The dotted path of a non-default field of `system` that
 *  fig9Config (qos false) or qosConfig (qos true) overwrites, or "". */
std::string sweptFieldSet(const SystemConfig &system, bool qos);

} // namespace pvsim

#endif // PVSIM_HARNESS_METRICS_HH
