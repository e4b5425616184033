#include "harness/metrics.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>

#include "util/logging.hh"

namespace pvsim {

unsigned
harnessJobs()
{
    if (const char *env = std::getenv("PVSIM_JOBS")) {
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return unsigned(std::min<unsigned long>(v, 256));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
effectiveHarnessJobs(unsigned batches)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    unsigned jobs = std::min(harnessJobs(), hw);
    return std::max(1u, std::min(jobs, batches));
}

namespace {

/**
 * Run body(b) for every batch in [0, batches), sharded over
 * effectiveHarnessJobs(batches) worker threads — PVSIM_JOBS clamped
 * to the hardware thread count and the batch count, falling back to
 * a plain serial loop when only one worker would run. Each body(b)
 * call constructs its own System — there is no shared SimContext
 * between batches, by construction — and all batch inputs derive
 * from b alone, so the result vector is bit-identical to a serial
 * loop no matter how many workers run or how the OS schedules them.
 */
void
forEachBatch(unsigned batches,
             const std::function<void(unsigned)> &body)
{
    unsigned jobs = effectiveHarnessJobs(batches);
    if (jobs <= 1) {
        for (unsigned b = 0; b < batches; ++b)
            body(b);
        return;
    }
    std::atomic<unsigned> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) {
        workers.emplace_back([&] {
            for (;;) {
                unsigned b = next.fetch_add(1);
                if (b >= batches)
                    return;
                body(b);
            }
        });
    }
    for (auto &t : workers)
        t.join();
}

} // anonymous namespace

CoverageMetrics
coverageOf(System &sys)
{
    CoverageMetrics m;
    for (int c = 0; c < sys.numCores(); ++c) {
        Cache &l1d = sys.l1d(c);
        m.covered += l1d.coveredMisses.value() +
                     l1d.lateCovered.value();
        m.uncovered += l1d.readMisses.value();
        m.overpredictions += l1d.overpredictions.value();
    }
    return m;
}

TrafficMetrics
trafficOf(System &sys)
{
    TrafficMetrics t;
    Cache &l2 = sys.l2();
    t.l2Requests = l2.requestsApp.value() + l2.requestsPv.value();
    t.l2RequestsPv = l2.requestsPv.value();
    t.l2MissesApp = l2.missesApp.value();
    t.l2MissesPv = l2.missesPv.value();
    t.l2WritebacksApp = l2.writebacksApp.value();
    t.l2WritebacksPv = l2.writebacksPv.value();
    t.offChipReadBytes = sys.dram().readBytes.value();
    t.offChipWriteBytes = sys.dram().writeBytes.value();
    return t;
}

double
pctIncrease(uint64_t base, uint64_t now)
{
    if (base == 0)
        return 0.0;
    return 100.0 * (double(now) - double(base)) / double(base);
}

double
aggregateIpc(uint64_t total_insts, Tick elapsed)
{
    return elapsed ? double(total_insts) / double(elapsed) : 0.0;
}

MeanCi
meanCi(const std::vector<double> &samples)
{
    MeanCi r;
    r.n = samples.size();
    if (r.n == 0)
        return r;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    r.mean = sum / double(r.n);
    if (r.n < 2)
        return r;
    double ss = 0.0;
    for (double s : samples)
        ss += (s - r.mean) * (s - r.mean);
    double stderr_ = std::sqrt(ss / double(r.n - 1)) /
                     std::sqrt(double(r.n));
    r.halfWidth = 1.96 * stderr_;
    return r;
}

namespace {

/**
 * The one warmup -> resetStats -> measure protocol every timing
 * harness entry runs, collecting the TimedRun scoreboard; callers
 * keep the System to harvest additional stats afterwards.
 */
TimedRun
runMeasured(System &sys, uint64_t warmup_records,
            uint64_t measure_records)
{
    if (warmup_records > 0)
        sys.runTiming(warmup_records);
    Tick start = sys.ctx().curTick();
    sys.resetStats();
    uint64_t events_before = sys.eventsExecuted();
    auto wall_start = std::chrono::steady_clock::now();
    Tick finish = sys.runTiming(measure_records);
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    TimedRun r;
    r.ipc = aggregateIpc(sys.totalInstructions(), finish - start);
    r.wallSeconds = wall.count();
    r.eventsExecuted = sys.eventsExecuted() - events_before;
    for (int c = 0; c < sys.numCores(); ++c) {
        // resetStats() zeroed the record counters, so these are
        // measure-phase-only.
        r.records += sys.core(c).recordsConsumed();
        r.btbHits += sys.core(c).btbHits.value();
        r.btbMispredicts += sys.core(c).btbMispredicts.value();
        r.btbUnavailable += sys.core(c).btbUnavailable.value();
    }
    return r;
}

} // anonymous namespace

TimedRun
timedRun(SystemConfig cfg, uint64_t warmup_records,
         uint64_t measure_records)
{
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    return runMeasured(sys, warmup_records, measure_records);
}

double
timedIpc(SystemConfig cfg, uint64_t warmup_records,
         uint64_t measure_records)
{
    return timedRun(std::move(cfg), warmup_records, measure_records)
        .ipc;
}

std::vector<double>
baselineIpcs(const SystemConfig &base, uint64_t warmup_records,
             uint64_t measure_records, unsigned batches)
{
    std::vector<double> ipcs(batches, 0.0);
    forEachBatch(batches, [&](unsigned b) {
        // Explicit per-batch copy: only seedOffset varies.
        SystemConfig cfg = base;
        cfg.seedOffset = b;
        ipcs[b] = timedIpc(cfg, warmup_records, measure_records);
    });
    return ipcs;
}

SpeedupResult
speedupOverBaseline(const std::vector<double> &base_ipcs,
                    const SystemConfig &cfg, uint64_t warmup_records,
                    uint64_t measure_records)
{
    SpeedupResult r;
    unsigned batches = unsigned(base_ipcs.size());
    r.batchPct.assign(batches, 0.0);
    forEachBatch(batches, [&](unsigned b) {
        SystemConfig batch_cfg = cfg;
        batch_cfg.seedOffset = b;
        double ipc_cfg =
            timedIpc(batch_cfg, warmup_records, measure_records);
        r.batchPct[b] =
            base_ipcs[b] > 0.0
                ? 100.0 * (ipc_cfg / base_ipcs[b] - 1.0)
                : 0.0;
    });
    MeanCi ci = meanCi(r.batchPct);
    r.meanPct = ci.mean;
    r.ciPct = ci.halfWidth;
    return r;
}

SpeedupResult
matchedPairSpeedup(const SystemConfig &base, const SystemConfig &cfg,
                   uint64_t warmup_records, uint64_t measure_records,
                   unsigned batches)
{
    return speedupOverBaseline(
        baselineIpcs(base, warmup_records, measure_records, batches),
        cfg, warmup_records, measure_records);
}

namespace {

/**
 * The successor-edge stability a (mix, requested-override) pair
 * actually runs — the single source of truth for fig9Config (what
 * the Systems execute) and fig9Sweep's row labels (what the
 * artifact reports): 0 for a mix without a branch profile (flat
 * streams — any override is meaningless), else the override, else
 * the mix's own value.
 */
double
fig9EffectiveStability(const WorkloadMix &mix, double requested)
{
    if (!mix.branch.enabled)
        return 0.0;
    return requested >= 0.0 ? requested
                            : mix.branch.edgeStability;
}

} // anonymous namespace

SystemConfig
fig9Config(const WorkloadMix &mix, const Fig9Options &opt,
           BtbMode mode, double edge_stability)
{
    SystemConfig cfg;
    cfg.mode = SimMode::Timing;
    cfg.numCores = opt.numCores;
    cfg.workloadMix = mix.workloads;
    // The mix's control-flow profile makes the branch stream
    // learnable; a sweep value overrides its stability so the
    // experiment can walk hit rate from near-perfect to coin-flip.
    cfg.branchProfile = mix.branch;
    if (mix.branch.enabled) {
        cfg.branchProfile.edgeStability =
            fig9EffectiveStability(mix, edge_stability);
    }
    // No data prefetcher: the pair isolates the BTB effect.
    cfg.prefetch = PrefetchMode::None;
    cfg.btbMispredictPenalty = opt.penalty;
    cfg.btb.mode = mode;
    cfg.btb.numSets = opt.btbSets;
    cfg.btb.assoc = opt.btbAssoc;
    // The virtualized table needs its sets inside the per-core PV
    // reservation; the dedicated side keeps the same value so the
    // address map (and with it the timing) is identical.
    cfg.pvBytesPerCore =
        std::max<uint64_t>(cfg.pvBytesPerCore,
                           uint64_t(opt.btbSets) * kBlockBytes);
    cfg.pvPrefetch = opt.pvPrefetch;
    cfg.victimEntries = opt.victimEntries;
    return cfg;
}

std::vector<Fig9Row>
fig9Sweep(const Fig9Options &opt)
{
    pv_assert(opt.batches > 0, "fig9Sweep needs at least one batch");
    const std::vector<WorkloadMix> mixes =
        opt.mixes.empty() ? presetMixes() : opt.mixes;
    const std::vector<double> stabilities =
        opt.edgeStabilities.empty()
            ? std::vector<double>{kFig9MixStability}
            : opt.edgeStabilities;
    const unsigned batches = opt.batches;

    // Every (stability, mix, side, batch) run is a self-contained
    // System, so flatten them all into one shard: the pool stays
    // busy even when batches alone are fewer than the workers. Job
    // layout: stability-major, then mix, then side (0 dedicated /
    // 1 virtualized), then batch; results are bit-identical to the
    // nested serial loops.
    const unsigned per_mix = 2 * batches;
    const unsigned per_stab = unsigned(mixes.size()) * per_mix;
    std::vector<TimedRun> runs(stabilities.size() * per_stab);
    forEachBatch(unsigned(runs.size()), [&](unsigned j) {
        const double stability = stabilities[j / per_stab];
        const WorkloadMix &mix =
            mixes[(j % per_stab) / per_mix];
        BtbMode mode = (j / batches) % 2 ? BtbMode::Virtualized
                                         : BtbMode::Dedicated;
        SystemConfig cfg = fig9Config(mix, opt, mode, stability);
        cfg.seedOffset = j % batches;
        runs[j] = timedRun(cfg, opt.warmupRecords,
                           opt.measureRecords);
    });

    std::vector<Fig9Row> rows;
    rows.reserve(stabilities.size() * mixes.size());
    for (size_t s = 0; s < stabilities.size(); ++s) {
        for (size_t m = 0; m < mixes.size(); ++m) {
            const TimedRun *ded =
                &runs[s * per_stab + m * per_mix];
            const TimedRun *virt = ded + batches;
            Fig9Row row;
            row.mix = mixes[m].name;
            // Same resolution fig9Config applied: the label always
            // matches what the Systems ran (0 = flat-stream pass).
            row.edgeStability =
                fig9EffectiveStability(mixes[m], stabilities[s]);
            row.batchPct.resize(batches, 0.0);
            double ded_sum = 0.0, virt_sum = 0.0;
            TimedRun ded_all, virt_all;
            for (unsigned b = 0; b < batches; ++b) {
                ded_sum += ded[b].ipc;
                virt_sum += virt[b].ipc;
                row.wallSeconds +=
                    ded[b].wallSeconds + virt[b].wallSeconds;
                row.records += ded[b].records + virt[b].records;
                row.eventsExecuted +=
                    ded[b].eventsExecuted + virt[b].eventsExecuted;
                ded_all.btbHits += ded[b].btbHits;
                ded_all.btbMispredicts += ded[b].btbMispredicts;
                virt_all.btbHits += virt[b].btbHits;
                virt_all.btbMispredicts += virt[b].btbMispredicts;
                row.batchPct[b] =
                    ded[b].ipc > 0.0
                        ? 100.0 * (virt[b].ipc / ded[b].ipc - 1.0)
                        : 0.0;
            }
            row.dedicatedIpc = ded_sum / double(batches);
            row.virtualizedIpc = virt_sum / double(batches);
            row.dedicatedHitPct = 100.0 * ded_all.btbHitRate();
            row.virtualizedHitPct = 100.0 * virt_all.btbHitRate();
            MeanCi ci = meanCi(row.batchPct);
            row.speedupPct = ci.mean;
            row.ciPct = ci.halfWidth;
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

// ---- PVCache locality prefetch comparison -----------------------------

Fig9PrefetchResult
fig9PrefetchCompare(const Fig9Options &opt)
{
    pv_assert(opt.batches > 0,
              "fig9PrefetchCompare needs at least one batch");
    WorkloadMix mix;
    for (const WorkloadMix &m : presetMixes()) {
        if (m.name == "mixed")
            mix = m;
    }
    pv_assert(!mix.workloads.empty(), "preset mix 'mixed' missing");

    Fig9PrefetchResult res;
    res.mix = mix.name;
    res.depth = opt.pvPrefetch ? opt.pvPrefetch : 2;
    res.victimEntries = opt.victimEntries ? opt.victimEntries : 8;

    // One self-contained System per (side, batch) job, matched
    // seeds. Job layout is side-major (0 = off, 1 = on), so the
    // batch index — and with it the seed — is j % batches on both
    // sides; the runs vector is bit-identical to a serial loop.
    struct Run {
        TimedRun timed;
        uint64_t prefetchFills = 0;
        uint64_t prefetchUseful = 0;
        uint64_t prefetchDrops = 0;
        uint64_t victimHits = 0;
    };
    const unsigned batches = opt.batches;
    std::vector<Run> runs(2 * batches);
    forEachBatch(unsigned(runs.size()), [&](unsigned j) {
        const bool on = j >= batches;
        SystemConfig cfg =
            fig9Config(mix, opt, BtbMode::Virtualized);
        cfg.pvPrefetch = on ? res.depth : 0;
        cfg.victimEntries = on ? res.victimEntries : 0;
        cfg.seedOffset = j % batches;
        System sys(cfg);
        Run &r = runs[j];
        r.timed = runMeasured(sys, opt.warmupRecords,
                              opt.measureRecords);
        for (int c = 0; c < sys.numCores(); ++c) {
            PvProxy *p = sys.pvProxy(c);
            if (!p)
                continue;
            r.prefetchFills += p->prefetchFills.value();
            r.prefetchUseful += p->prefetchUseful.value();
            r.prefetchDrops += p->prefetchDrops.value();
            r.victimHits += p->victimHits.value();
        }
    });

    auto fold = [&](Fig9PrefetchSide &side, const Run *first) {
        TimedRun all;
        double ipc_sum = 0.0;
        for (unsigned b = 0; b < batches; ++b) {
            const Run &r = first[b];
            ipc_sum += r.timed.ipc;
            side.wallSeconds += r.timed.wallSeconds;
            all.btbHits += r.timed.btbHits;
            all.btbMispredicts += r.timed.btbMispredicts;
            all.btbUnavailable += r.timed.btbUnavailable;
            side.prefetchFills += r.prefetchFills;
            side.prefetchUseful += r.prefetchUseful;
            side.prefetchDrops += r.prefetchDrops;
            side.victimHits += r.victimHits;
        }
        side.ipc = ipc_sum / double(batches);
        side.availRedirectPct =
            100.0 * all.btbAvailabilityRedirectRate();
    };
    fold(res.off, runs.data());
    fold(res.on, runs.data() + batches);

    std::vector<double> delta(batches, 0.0);
    for (unsigned b = 0; b < batches; ++b)
        delta[b] = runs[b].timed.ipc > 0.0
                       ? 100.0 * (runs[batches + b].timed.ipc /
                                      runs[b].timed.ipc -
                                  1.0)
                       : 0.0;
    res.ipcDeltaPct = meanCi(delta).mean;
    res.availImprovementPct =
        res.off.availRedirectPct > 0.0
            ? 100.0 * (res.off.availRedirectPct -
                       res.on.availRedirectPct) /
                  res.off.availRedirectPct
            : 0.0;
    return res;
}

// ---- Per-tenant QoS contention sweep ----------------------------------

std::vector<QosSetting>
presetQosSettings()
{
    std::vector<QosSetting> s;
    auto weights = [](const std::string &label, unsigned btb_w,
                      unsigned agg_w) {
        QosSetting q;
        q.label = label;
        q.btb.weight = btb_w;
        q.aggressor.weight = agg_w;
        return q;
    };
    // The first setting is the baseline every delta is computed
    // against: default contracts, i.e. the legacy fair share.
    s.push_back(weights("equal", 1, 1));
    s.push_back(weights("2:1", 2, 1));
    s.push_back(weights("4:1", 4, 1));
    s.push_back(weights("8:1", 8, 1));
    // Floors instead of weights: equal weighting of the remainder,
    // but the BTB is guaranteed most of each resource outright —
    // and unlike 4:1/8:1 (whose MSHR split rounds the aggressor to
    // zero slots), the aggressor keeps one MSHR, so this is the
    // "protect without killing" contract.
    QosSetting floors = weights("equal+floor", 1, 1);
    floors.btb.pvCacheFloor = 10;
    floors.btb.mshrFloor = 2;
    floors.btb.patternBufferFloor = 12;
    s.push_back(floors);
    return s;
}

SystemConfig
qosConfig(const QosOptions &opt, const QosSetting &s)
{
    // The branchiest preset mix: learnable streams with enough
    // distinct routines to thrash the PVCache — the profile under
    // which PR 4 measured the widest availability gap.
    WorkloadMix mix;
    for (const WorkloadMix &m : presetMixes()) {
        if (m.name == "mixed")
            mix = m;
    }
    pv_assert(!mix.workloads.empty(), "preset mix 'mixed' missing");

    SystemConfig cfg;
    cfg.mode = SimMode::Timing;
    cfg.numCores = opt.numCores;
    cfg.workloadMix = mix.workloads;
    cfg.branchProfile = mix.branch;
    // No data prefetcher: the aggressor is the only other tenant,
    // so the BTB deltas isolate the proxy contention effect.
    cfg.prefetch = PrefetchMode::None;
    cfg.btbMispredictPenalty = opt.penalty;
    cfg.btb.mode = BtbMode::Virtualized;
    cfg.btb.numSets = opt.btbSets;
    cfg.btb.assoc = opt.btbAssoc;
    cfg.btb.qos = s.btb;
    cfg.pvCacheEntries = opt.pvCacheEntries;

    VirtEngineConfig agg;
    agg.kind = VirtEngineKind::Agt;
    agg.numSets = opt.agtSets;
    // AGT entries are 54-bit payloads: 4 ways x 12-bit tags is the
    // widest packing that fits a 64-byte line.
    agg.assoc = 4;
    agg.tagBits = 12;
    agg.qos = s.aggressor;
    cfg.virtEngines.push_back(agg);

    cfg.pvBytesPerCore = std::max<uint64_t>(
        cfg.pvBytesPerCore,
        uint64_t(opt.btbSets + opt.agtSets) * kBlockBytes);
    cfg.pvPrefetch = opt.pvPrefetch;
    cfg.victimEntries = opt.victimEntries;
    return cfg;
}

namespace {

/** Everything one QoS run yields beyond TimedRun: per-tenant proxy
 *  pressure summed over the cores' proxies. */
struct QosRun {
    TimedRun timed;
    uint64_t btbOps = 0;
    uint64_t btbDrops = 0;
    uint64_t btbFills = 0;
    uint64_t btbFillTicks = 0;
    uint64_t aggOps = 0;
    uint64_t aggDrops = 0;
};

QosRun
qosRun(SystemConfig cfg, uint64_t warmup_records,
       uint64_t measure_records)
{
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    QosRun r;
    r.timed = runMeasured(sys, warmup_records, measure_records);
    for (int c = 0; c < sys.numCores(); ++c) {
        PvProxy::EngineStats &bs = sys.virtBtb(c)->engineStats();
        r.btbOps += bs.operations.value();
        r.btbDrops += bs.drops.value();
        r.btbFills += bs.fills.value();
        r.btbFillTicks += bs.fillLatencyTicks.value();
        PvProxy::EngineStats &as = sys.virtAgt(c)->engineStats();
        r.aggOps += as.operations.value();
        r.aggDrops += as.drops.value();
    }
    return r;
}

} // anonymous namespace

std::vector<QosRow>
qosSweep(const QosOptions &opt)
{
    pv_assert(opt.batches > 0, "qosSweep needs at least one batch");
    const std::vector<QosSetting> settings =
        opt.settings.empty() ? presetQosSettings() : opt.settings;
    const unsigned batches = opt.batches;

    // Job layout: setting-major, then batch; every run is a
    // self-contained System, so the (setting, batch) grid shards
    // flat across the worker pool with bit-identical results.
    std::vector<QosRun> runs(settings.size() * batches);
    forEachBatch(unsigned(runs.size()), [&](unsigned j) {
        SystemConfig cfg =
            qosConfig(opt, settings[j / batches]);
        cfg.seedOffset = j % batches;
        runs[j] = qosRun(cfg, opt.warmupRecords,
                         opt.measureRecords);
    });

    std::vector<QosRow> rows;
    rows.reserve(settings.size());
    for (size_t s = 0; s < settings.size(); ++s) {
        const QosRun *mine = &runs[s * batches];
        const QosRun *base = &runs[0]; // first setting, same seeds
        QosRow row;
        row.label = settings[s].label;
        row.btbWeight = settings[s].btb.weight;
        row.aggressorWeight = settings[s].aggressor.weight;

        TimedRun all, base_all;
        double ipc_sum = 0.0;
        uint64_t ops = 0, drops = 0, fills = 0, fill_ticks = 0;
        uint64_t agg_ops = 0, agg_drops = 0;
        std::vector<double> delta(batches, 0.0);
        for (unsigned b = 0; b < batches; ++b) {
            ipc_sum += mine[b].timed.ipc;
            row.wallSeconds += mine[b].timed.wallSeconds;
            row.records += mine[b].timed.records;
            row.eventsExecuted += mine[b].timed.eventsExecuted;
            all.btbHits += mine[b].timed.btbHits;
            all.btbMispredicts += mine[b].timed.btbMispredicts;
            all.btbUnavailable += mine[b].timed.btbUnavailable;
            base_all.btbHits += base[b].timed.btbHits;
            base_all.btbMispredicts +=
                base[b].timed.btbMispredicts;
            base_all.btbUnavailable +=
                base[b].timed.btbUnavailable;
            ops += mine[b].btbOps;
            drops += mine[b].btbDrops;
            fills += mine[b].btbFills;
            fill_ticks += mine[b].btbFillTicks;
            agg_ops += mine[b].aggOps;
            agg_drops += mine[b].aggDrops;
            delta[b] = base[b].timed.ipc > 0.0
                           ? 100.0 * (mine[b].timed.ipc /
                                          base[b].timed.ipc -
                                      1.0)
                           : 0.0;
        }
        row.ipc = ipc_sum / double(batches);
        row.availRedirectPct =
            100.0 * all.btbAvailabilityRedirectRate();
        row.btbHitPct = 100.0 * all.btbHitRate();
        row.btbDropPct =
            ops ? 100.0 * double(drops) / double(ops) : 0.0;
        row.aggressorDropPct =
            agg_ops ? 100.0 * double(agg_drops) / double(agg_ops)
                    : 0.0;
        row.btbFillLatency =
            fills ? double(fill_ticks) / double(fills) : 0.0;
        row.ipcDeltaPct = meanCi(delta).mean;
        double base_rate =
            100.0 * base_all.btbAvailabilityRedirectRate();
        row.availImprovementPct =
            base_rate > 0.0
                ? 100.0 * (base_rate - row.availRedirectPct) /
                      base_rate
                : 0.0;
        rows.push_back(std::move(row));
    }
    return rows;
}

// ---- Heterogeneous per-cluster tenant matrix --------------------------

namespace {

/** Cluster group of core c: contiguous quarters. */
unsigned
hetGroupOf(int core, int num_cores)
{
    return unsigned(core) * 4u / unsigned(num_cores);
}

/** Per-group tenant counters of one heterogeneous run. */
struct HetGroup {
    uint64_t btbHits = 0;
    uint64_t btbMispredicts = 0;
    uint64_t btbUnavailable = 0;
    uint64_t btbOps = 0;
    uint64_t btbDrops = 0;
    uint64_t aggOps = 0;
    uint64_t aggDrops = 0;

    double
    availRedirectPct() const
    {
        uint64_t scored = btbHits + btbMispredicts;
        return scored ? 100.0 * double(btbUnavailable) /
                            double(scored)
                      : 0.0;
    }

    double
    btbHitPct() const
    {
        uint64_t scored = btbHits + btbMispredicts;
        return scored ? 100.0 * double(btbHits) / double(scored)
                      : 0.0;
    }

    double
    btbDropPct() const
    {
        return btbOps ? 100.0 * double(btbDrops) / double(btbOps)
                      : 0.0;
    }

    double
    aggressorDropPct() const
    {
        return aggOps ? 100.0 * double(aggDrops) / double(aggOps)
                      : 0.0;
    }
};

struct HetRun {
    TimedRun timed;
    std::array<HetGroup, 4> groups;
};

/**
 * One heterogeneous run: every cluster group gets its own workload
 * mix; when `protect` is set, groups 1..3 additionally get their
 * own QoS contracts (installed through the proxies before any
 * traffic — the config itself carries the equal contract, so the
 * protected and reference runs share one address map and seed
 * derivation and differ only in the arbiter's entitlements).
 */
HetRun
hetRun(const QosOptions &opt,
       const std::array<const WorkloadMix *, 4> &group_mixes,
       const std::array<const QosSetting *, 4> &contracts,
       unsigned seed, bool protect)
{
    SystemConfig cfg = qosConfig(opt, *contracts[0]);
    cfg.workloadMix.clear();
    cfg.workloadMix.reserve(size_t(opt.numCores));
    for (int c = 0; c < opt.numCores; ++c) {
        const std::vector<std::string> &w =
            group_mixes[hetGroupOf(c, opt.numCores)]->workloads;
        cfg.workloadMix.push_back(w[size_t(c) % w.size()]);
    }
    cfg.seedOffset = seed;
    System sys(cfg);
    if (protect) {
        for (int c = 0; c < sys.numCores(); ++c) {
            const QosSetting &s =
                *contracts[hetGroupOf(c, opt.numCores)];
            // Table 0 is the implicit virtualized BTB, table 1 the
            // registered AGT aggressor (see qosConfig).
            sys.pvProxy(c)->setTenantQos(0, s.btb);
            sys.pvProxy(c)->setTenantQos(1, s.aggressor);
        }
    }
    HetRun r;
    r.timed = runMeasured(sys, opt.warmupRecords,
                          opt.measureRecords);
    for (int c = 0; c < sys.numCores(); ++c) {
        HetGroup &g = r.groups[hetGroupOf(c, opt.numCores)];
        g.btbHits += sys.core(c).btbHits.value();
        g.btbMispredicts += sys.core(c).btbMispredicts.value();
        g.btbUnavailable += sys.core(c).btbUnavailable.value();
        PvProxy::EngineStats &bs = sys.virtBtb(c)->engineStats();
        g.btbOps += bs.operations.value();
        g.btbDrops += bs.drops.value();
        PvProxy::EngineStats &as = sys.virtAgt(c)->engineStats();
        g.aggOps += as.operations.value();
        g.aggDrops += as.drops.value();
    }
    return r;
}

} // anonymous namespace

QosHeterogeneousResult
qosHeterogeneous(const QosOptions &opt)
{
    pv_assert(opt.batches > 0,
              "qosHeterogeneous needs at least one batch");
    pv_assert(opt.numCores >= 4 && opt.numCores % 4 == 0,
              "heterogeneous matrix needs a multiple of 4 cores");

    // The four preset mixes (web / oltp / dss / mixed), one per
    // cluster group.
    const std::vector<WorkloadMix> mixes = presetMixes();
    pv_assert(mixes.size() >= 4, "need four preset mixes");
    const std::array<const WorkloadMix *, 4> group_mixes = {
        &mixes[0], &mixes[1], &mixes[2], &mixes[3]};

    // Per-group contracts: the control group keeps the equal
    // contract even in the protected run, so its row isolates the
    // cross-cluster side effects of protecting the others.
    const std::vector<QosSetting> presets = presetQosSettings();
    pv_assert(presets.size() >= 5, "need the preset QoS settings");
    const std::array<const QosSetting *, 4> contracts = {
        &presets[0],  // equal (control)
        &presets[2],  // 4:1
        &presets[4],  // equal+floor
        &presets[3]}; // 8:1

    // Job layout: side-major (reference first), then batch; both
    // sides of batch b share the seed, so deltas are matched.
    const unsigned batches = opt.batches;
    std::vector<HetRun> runs(2 * batches);
    forEachBatch(unsigned(runs.size()), [&](unsigned j) {
        runs[j] = hetRun(opt, group_mixes, contracts, j % batches,
                         /*protect=*/j >= batches);
    });

    QosHeterogeneousResult res;
    const HetRun *ref = &runs[0];
    const HetRun *prot = &runs[batches];
    double ref_ipc = 0.0, prot_ipc = 0.0;
    std::array<HetGroup, 4> ref_g, prot_g;
    auto accumulate = [](TimedRun &into, const TimedRun &from) {
        into.btbHits += from.btbHits;
        into.btbMispredicts += from.btbMispredicts;
        into.btbUnavailable += from.btbUnavailable;
        into.wallSeconds += from.wallSeconds;
        into.records += from.records;
        into.eventsExecuted += from.eventsExecuted;
    };
    auto merge = [](std::array<HetGroup, 4> &into,
                    const std::array<HetGroup, 4> &from) {
        for (size_t g = 0; g < 4; ++g) {
            into[g].btbHits += from[g].btbHits;
            into[g].btbMispredicts += from[g].btbMispredicts;
            into[g].btbUnavailable += from[g].btbUnavailable;
            into[g].btbOps += from[g].btbOps;
            into[g].btbDrops += from[g].btbDrops;
            into[g].aggOps += from[g].aggOps;
            into[g].aggDrops += from[g].aggDrops;
        }
    };
    for (unsigned b = 0; b < batches; ++b) {
        ref_ipc += ref[b].timed.ipc;
        prot_ipc += prot[b].timed.ipc;
        accumulate(res.referenceRun, ref[b].timed);
        accumulate(res.protectedRun, prot[b].timed);
        merge(ref_g, ref[b].groups);
        merge(prot_g, prot[b].groups);
    }
    res.referenceRun.ipc = ref_ipc / double(batches);
    res.protectedRun.ipc = prot_ipc / double(batches);

    for (size_t g = 0; g < 4; ++g) {
        QosClusterRow row;
        row.mix = group_mixes[g]->name;
        row.contract = contracts[g]->label;
        row.cluster = row.mix + "/" + row.contract;
        row.btbWeight = contracts[g]->btb.weight;
        row.aggressorWeight = contracts[g]->aggressor.weight;
        row.cores = opt.numCores / 4;
        row.availRedirectPct = prot_g[g].availRedirectPct();
        row.btbHitPct = prot_g[g].btbHitPct();
        row.btbDropPct = prot_g[g].btbDropPct();
        row.aggressorDropPct = prot_g[g].aggressorDropPct();
        row.refAvailRedirectPct = ref_g[g].availRedirectPct();
        row.refBtbDropPct = ref_g[g].btbDropPct();
        row.availImprovementPct =
            row.refAvailRedirectPct > 0.0
                ? 100.0 * (row.refAvailRedirectPct -
                           row.availRedirectPct) /
                      row.refAvailRedirectPct
                : 0.0;
        res.clusters.push_back(std::move(row));
    }
    return res;
}

} // namespace pvsim
