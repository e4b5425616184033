/**
 * @file
 * Aggregated experiment metrics: coverage triples (Figures 4/5),
 * traffic summaries (Figures 6-8, 10), aggregate IPC and matched-pair
 * speedups with confidence intervals (Figures 9/11, using the
 * batch-means analogue of the paper's matched-pair sampling).
 */

#ifndef PVSIM_HARNESS_METRICS_HH
#define PVSIM_HARNESS_METRICS_HH

#include <cstdint>
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
    std::vector<double> batchPct;
};

/** Everything one timing run reports (fig9-style sweeps want the
 *  BTB scoring alongside the IPC). */
struct TimedRun {
    double ipc = 0.0;
    uint64_t btbHits = 0;        ///< summed over cores, measure phase
    uint64_t btbMispredicts = 0;
    /** Lookups unanswered at fetch (virtualized BTB waiting on its
     *  PV fill) — the availability redirects QoS protects. */
    uint64_t btbUnavailable = 0;
    /** Wall-clock seconds of the measure phase (host time). */
    double wallSeconds = 0.0;
    /** Trace records consumed in the measure phase, summed over
     *  cores. */
    uint64_t records = 0;
    /** Events executed during the measure phase (a diagnostic: a
     *  wasted event raises it without simulating anything more). */
    uint64_t eventsExecuted = 0;

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

/** One timing run: warmup, reset stats, measure.
 *  Takes cfg by value: this IS the per-run copy that the batch
 *  drivers mutate (mode, seedOffset) for one run. */
TimedRun timedRun(SystemConfig cfg, uint64_t warmup_records,
                  uint64_t measure_records);

/** timedRun(), keeping only the IPC (the batch drivers' unit). */
double timedIpc(SystemConfig cfg, uint64_t warmup_records,
                uint64_t measure_records);

/**
 * Requested worker threads for the batch drivers below: the
 * PVSIM_JOBS environment variable when set (>= 1), else the
 * hardware thread count. Each batch runs a fully self-contained
 * System (its own SimContext, event queue and RNGs) and derives its
 * seeds from the batch index alone, so the sharded results are
 * bit-identical to a serial run regardless of the worker count.
 */
unsigned harnessJobs();

/**
 * Worker threads the drivers actually spawn for `batches` batches:
 * harnessJobs() clamped to the hardware thread count (threads
 * beyond physical cores only add contention — an oversubscribed
 * pool measured 0.77x of serial) and to the batch count (idle
 * workers are pure overhead). When this is 1, the drivers take the
 * serial path outright — no pool, no atomics.
 */
unsigned effectiveHarnessJobs(unsigned batches);

/** Matched-pair speedup of cfg vs base over `batches` seed pairs.
 *  Batches are sharded across effectiveHarnessJobs(batches)
 *  worker threads. */
SpeedupResult matchedPairSpeedup(const SystemConfig &base,
                                 const SystemConfig &cfg,
                                 uint64_t warmup_records,
                                 uint64_t measure_records,
                                 unsigned batches);

/**
 * Baseline IPCs for batches 0..n-1 (seedOffset = batch index),
 * reusable across several matched configurations. Sharded across
 * effectiveHarnessJobs(batches) worker threads.
 */
std::vector<double> baselineIpcs(const SystemConfig &base,
                                 uint64_t warmup_records,
                                 uint64_t measure_records,
                                 unsigned batches);

/** Matched-pair speedup against precomputed baseline IPCs.
 *  Sharded across effectiveHarnessJobs() worker threads. */
SpeedupResult speedupOverBaseline(const std::vector<double> &base_ipcs,
                                  const SystemConfig &cfg,
                                  uint64_t warmup_records,
                                  uint64_t measure_records);

// ---- Figure 9-style BTB virtualization sweep --------------------------

/**
 * Sentinel for Fig9Options::edgeStabilities: run the mix's own
 * branch-profile stability (the recorded default).
 */
constexpr double kFig9MixStability = -1.0;

/** Knobs of the dedicated-vs-virtualized BTB IPC experiment. */
struct Fig9Options {
    int numCores = 4;
    /** Capacity-matched BTB geometry for both sides of each pair. */
    unsigned btbSets = 512;
    unsigned btbAssoc = 8;
    /** Front-end redirect cost per mispredict (cycles). */
    Cycles penalty = 8;
    uint64_t warmupRecords = 20'000;  ///< per core
    uint64_t measureRecords = 60'000; ///< per core
    unsigned batches = 2; ///< matched-pair batches per mix
    /** Mixes to run; empty means presetMixes(). */
    std::vector<WorkloadMix> mixes;
    /**
     * Successor-edge stabilities to sweep: each value overrides the
     * mixes' branch-profile stability for one pass over all mixes
     * (kFig9MixStability keeps the mix's own value). Empty means
     * {kFig9MixStability} — one pass at the recorded defaults.
     */
    std::vector<double> edgeStabilities;
    /** PVCache locality prefetch depth on the virtualized side
     *  (paper Section 4.3); 0 keeps the detector off. */
    unsigned pvPrefetch = 0;
    /** Victim-buffer entries per proxy (0 = none). */
    unsigned victimEntries = 0;
};

/** One (mix, stability) matched-pair outcome. */
struct Fig9Row {
    std::string mix;
    /** Effective successor-edge stability of this pass; 0 when the
     *  mix carries no branch profile (flat streams — any requested
     *  override is meaningless and was not applied). */
    double edgeStability = 0.0;
    double dedicatedIpc = 0.0;   ///< mean aggregate IPC, SRAM BTB
    double virtualizedIpc = 0.0; ///< mean aggregate IPC, PV BTB
    double speedupPct = 0.0; ///< virtualized over dedicated (mean)
    double ciPct = 0.0;      ///< 95% half-width of speedupPct
    /** Taken-branch target hit rates (batch-aggregated). */
    double dedicatedHitPct = 0.0;
    double virtualizedHitPct = 0.0;
    std::vector<double> batchPct;
    /** Host-side cost of the row (both sides, all batches). */
    double wallSeconds = 0.0;
    uint64_t records = 0;
    uint64_t eventsExecuted = 0;

    /** Simulator throughput over the row's measure phases. */
    double
    recordsPerSec() const
    {
        return wallSeconds > 0.0 ? double(records) / wallSeconds : 0.0;
    }
};

/**
 * Config builder for either side of one mix's matched pair: pass
 * BtbMode::Dedicated or BtbMode::Virtualized. Both sides get the
 * same (inflated-if-needed) pvBytesPerCore so their address maps —
 * and with them the timing — are identical. The mix's branch
 * profile is installed (learnable streams); edge_stability
 * overrides its stability unless it is kFig9MixStability.
 */
SystemConfig fig9Config(const WorkloadMix &mix,
                        const Fig9Options &opt, BtbMode mode,
                        double edge_stability = kFig9MixStability);

/**
 * Run the dedicated-vs-virtualized BTB matched pairs over the given
 * mixes (timing mode, identical seeds per batch, batches sharded
 * over effectiveHarnessJobs() workers). The result is deterministic
 * and independent of the worker count.
 */
std::vector<Fig9Row> fig9Sweep(const Fig9Options &opt);

/** One side (prefetch off / on) of the PVCache locality-prefetch
 *  comparison: virtualized-BTB runs, batch-aggregated. */
struct Fig9PrefetchSide {
    double ipc = 0.0; ///< mean aggregate IPC across batches
    /** BTB availability-redirect rate (percent): lookups unanswered
     *  at fetch because the PV line was still in flight. */
    double availRedirectPct = 0.0;
    /** Proxy prefetch/victim counters summed over cores+batches. */
    uint64_t prefetchFills = 0;
    uint64_t prefetchUseful = 0;
    uint64_t prefetchDrops = 0;
    uint64_t victimHits = 0;
    double wallSeconds = 0.0;
};

/** Outcome of fig9PrefetchCompare: the off/on matched pair. */
struct Fig9PrefetchResult {
    std::string mix;            ///< preset the comparison ran
    unsigned depth = 0;         ///< prefetch depth of the on side
    unsigned victimEntries = 0; ///< victim entries of the on side
    Fig9PrefetchSide off, on;
    /** Relative reduction of the availability-redirect rate,
     *  off -> on (positive = the prefetcher hides fill latency). */
    double availImprovementPct = 0.0;
    /** Mean matched-seed IPC delta of on over off (percent). */
    double ipcDeltaPct = 0.0;
};

/**
 * PVCache locality prefetch (paper Section 4.3) off-vs-on matched
 * pair: the virtualized side of the "mixed" preset, identical seeds
 * per batch, prefetch disabled vs opt.pvPrefetch/opt.victimEntries
 * (0 falls back to depth 2 / 8 victim entries so the default sweep
 * still exercises the detector). The off side is bit-identical to
 * the pre-prefetch proxy, so the delta is the prefetcher's doing.
 */
Fig9PrefetchResult fig9PrefetchCompare(const Fig9Options &opt);

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

/** Knobs of the BTB-vs-aggressor QoS protection experiment. */
struct QosOptions {
    int numCores = 2;
    /** Virtualized BTB geometry (the protected tenant). Small
     *  enough that a protected PVCache share actually covers a
     *  useful fraction of the hot sets — with a 512-set BTB the
     *  tenant thrashes itself and the aggressor's marginal damage
     *  (the thing QoS can remove) shrinks below 10%. */
    unsigned btbSets = 128;
    unsigned btbAssoc = 8;
    /** AGT aggressor geometry: every data reference is one RMW
     *  proxy operation, so this tenant is bandwidth-hungry by
     *  construction. */
    unsigned agtSets = 512;
    /** Front-end redirect cost per mispredict (cycles). */
    Cycles penalty = 8;
    /** Shared PVCache entries per proxy (2x the paper's 8: the
     *  partitioning experiment needs enough ways to split). */
    unsigned pvCacheEntries = 16;
    uint64_t warmupRecords = 20'000;  ///< per core
    uint64_t measureRecords = 60'000; ///< per core
    unsigned batches = 2;             ///< matched batches per setting
    /** PVCache locality prefetch depth on every proxy (paper
     *  Section 4.3); 0 keeps the detector off. */
    unsigned pvPrefetch = 0;
    /** Victim-buffer entries per proxy (0 = none). */
    unsigned victimEntries = 0;
    /** Settings to run; empty means presetQosSettings(). The first
     *  is the baseline the deltas are computed against. */
    std::vector<QosSetting> settings;
};

/** One setting's outcome (batch-aggregated; deltas are matched-seed
 *  against the first setting). */
struct QosRow {
    std::string label;
    unsigned btbWeight = 0;
    unsigned aggressorWeight = 0;
    double ipc = 0.0; ///< mean aggregate IPC across batches
    /** BTB availability-redirect rate: lookups unanswered at fetch
     *  per scored taken branch (percent). */
    double availRedirectPct = 0.0;
    double btbHitPct = 0.0;
    /** Proxy-level per-tenant pressure. */
    double btbDropPct = 0.0;       ///< BTB ops dropped (percent)
    double aggressorDropPct = 0.0; ///< aggressor ops dropped
    double btbFillLatency = 0.0;   ///< mean ticks per BTB fill
    /** Matched-seed IPC delta vs the first (baseline) setting. */
    double ipcDeltaPct = 0.0;
    /** Relative reduction of availRedirectPct vs the baseline
     *  setting (positive = the BTB is better protected). */
    double availImprovementPct = 0.0;
    /** Host-side cost of the setting (all batches). */
    double wallSeconds = 0.0;
    uint64_t records = 0;
    uint64_t eventsExecuted = 0;

    /** Simulator throughput over the setting's measure phases. */
    double
    recordsPerSec() const
    {
        return wallSeconds > 0.0 ? double(records) / wallSeconds : 0.0;
    }
};

/** Config of one QoS run (exposed so tests can pin it down). */
SystemConfig qosConfig(const QosOptions &opt, const QosSetting &s);

/**
 * Run the QoS contention sweep: a virtualized BTB vs an AGT
 * aggressor on every core's shared proxy, across the weight
 * settings, matched seeds per batch, (setting, batch) jobs sharded
 * over effectiveHarnessJobs() workers. Deterministic and
 * independent of the worker count.
 */
std::vector<QosRow> qosSweep(const QosOptions &opt);

// ---- Heterogeneous per-cluster tenant matrix --------------------------

/**
 * One cluster group's outcome in the heterogeneous tenant matrix:
 * availability/drop pressure of its tenants under the group's own
 * QoS contract, against the matched-seed all-equal reference run.
 */
struct QosClusterRow {
    std::string cluster;  ///< group label, e.g. "web/4:1"
    std::string mix;      ///< workload mix of the group's cores
    std::string contract; ///< QoS contract label of the group
    unsigned btbWeight = 1;
    unsigned aggressorWeight = 1;
    int cores = 0;       ///< cores in the group
    /** Protected (per-cluster contracts) run, group-aggregated. */
    double availRedirectPct = 0.0;
    double btbHitPct = 0.0;
    double btbDropPct = 0.0;
    double aggressorDropPct = 0.0;
    /** Matched-seed all-equal reference, same group of cores. */
    double refAvailRedirectPct = 0.0;
    double refBtbDropPct = 0.0;
    /** Relative reduction of availRedirectPct vs the reference
     *  (positive = this group's BTB is better protected). */
    double availImprovementPct = 0.0;
};

/** The heterogeneous matrix outcome: per-cluster protection rows
 *  plus the aggregate scoreboards of both runs. */
struct QosHeterogeneousResult {
    std::vector<QosClusterRow> clusters;
    TimedRun protectedRun; ///< per-cluster contracts, all batches
    TimedRun referenceRun; ///< all-equal contracts, same seeds
};

/**
 * Heterogeneous per-cluster tenant matrix: the cores are split into
 * four equal cluster groups, each running a different preset
 * workload mix (web / oltp / dss / mixed) and a different QoS
 * contract on its cores' proxies (equal, 4:1, equal+floor, 8:1 —
 * installed via PvProxy::setTenantQos after construction), modelling
 * unrelated tenants sharing one many-core machine. A matched-seed
 * reference run keeps every group on the equal contract; the rows
 * report per-group protection deltas. Needs numCores % 4 == 0;
 * opt.settings is ignored. Deterministic for any worker count.
 */
QosHeterogeneousResult qosHeterogeneous(const QosOptions &opt);

} // namespace pvsim

#endif // PVSIM_HARNESS_METRICS_HH
