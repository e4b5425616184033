#include "harness/metrics.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>

#include "config/fields.hh"
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

TimedRun &
TimedRun::operator+=(const TimedRun &o)
{
    ipc += o.ipc;
    btbHits += o.btbHits;
    btbMispredicts += o.btbMispredicts;
    btbUnavailable += o.btbUnavailable;
    btbOps += o.btbOps;
    btbDrops += o.btbDrops;
    btbFills += o.btbFills;
    btbFillTicks += o.btbFillTicks;
    aggressorOps += o.aggressorOps;
    aggressorDrops += o.aggressorDrops;
    prefetchFills += o.prefetchFills;
    prefetchUseful += o.prefetchUseful;
    prefetchDrops += o.prefetchDrops;
    victimHits += o.victimHits;
    wallSeconds += o.wallSeconds;
    records += o.records;
    eventsExecuted += o.eventsExecuted;
    return *this;
}

namespace {

/** Add core c's counters to r. Called after the measure phase:
 *  resetStats() zeroed them at its start. */
void
addCoreCounters(TimedRun &r, System &sys, int c)
{
    r.records += sys.core(c).recordsConsumed();
    r.btbHits += sys.core(c).btbHits.value();
    r.btbMispredicts += sys.core(c).btbMispredicts.value();
    r.btbUnavailable += sys.core(c).btbUnavailable.value();
    if (VirtualizedBtb *btb = sys.virtBtb(c)) {
        PvProxy::EngineStats &s = btb->engineStats();
        r.btbOps += s.operations.value();
        r.btbDrops += s.drops.value();
        r.btbFills += s.fills.value();
        r.btbFillTicks += s.fillLatencyTicks.value();
    }
    if (VirtualizedAgt *agt = sys.virtAgt(c)) {
        PvProxy::EngineStats &s = agt->engineStats();
        r.aggressorOps += s.operations.value();
        r.aggressorDrops += s.drops.value();
    }
    if (PvProxy *p = sys.pvProxy(c)) {
        r.prefetchFills += p->prefetchFills.value();
        r.prefetchUseful += p->prefetchUseful.value();
        r.prefetchDrops += p->prefetchDrops.value();
        r.victimHits += p->victimHits.value();
    }
}

} // anonymous namespace

TimedRun
timedRun(SystemConfig cfg, uint64_t warmup_records,
         uint64_t measure_records, const TenantContracts &contracts,
         std::vector<TimedRun> *cores)
{
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    for (size_t c = 0; c < contracts.size(); ++c)
        for (size_t t = 0; t < contracts[c].size(); ++t)
            sys.pvProxy(int(c))->setTenantQos(unsigned(t), contracts[c][t]);
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
    if (cores)
        cores->assign(size_t(sys.numCores()), TimedRun{});
    for (int c = 0; c < sys.numCores(); ++c) {
        addCoreCounters(r, sys, c);
        if (cores)
            addCoreCounters((*cores)[size_t(c)], sys, c);
    }
    return r;
}

double
timedIpc(SystemConfig cfg, uint64_t warmup_records,
         uint64_t measure_records)
{
    return timedRun(std::move(cfg), warmup_records, measure_records)
        .ipc;
}

SpeedupResult
speedupFromIpcs(const std::vector<double> &base_ipcs,
                const std::vector<double> &ipcs)
{
    pv_assert(ipcs.size() == base_ipcs.size(),
              "matched pairs need one IPC per baseline batch");
    std::vector<double> pct(ipcs.size(), 0.0);
    for (size_t b = 0; b < ipcs.size(); ++b) {
        pct[b] = base_ipcs[b] > 0.0 ? 100.0 * (ipcs[b] / base_ipcs[b] - 1.0)
                                    : 0.0;
    }
    const MeanCi ci = meanCi(pct);
    return {ci.mean, ci.halfWidth};
}

SystemConfig
fig9Config(const SystemConfig &system, const WorkloadMix &mix, BtbMode mode,
           double edge_stability)
{
    SystemConfig cfg = system;
    cfg.mode = SimMode::Timing;
    cfg.workloadMix = mix.workloads;
    // The mix's control-flow profile makes the branch stream
    // learnable; a sweep value overrides its stability so the
    // experiment can walk hit rate from near-perfect to coin-flip.
    cfg.branchProfile = mix.branch;
    if (mix.branch.enabled)
        cfg.branchProfile.edgeStability = fig9Stability(mix, edge_stability);
    // No data prefetcher: the pair isolates the BTB effect.
    cfg.prefetch = PrefetchMode::None;
    cfg.btb.mode = mode;
    // The virtualized table needs its sets inside the per-core PV
    // reservation; the dedicated side keeps the same value so the
    // address map (and with it the timing) is identical.
    cfg.pvBytesPerCore =
        std::max<uint64_t>(cfg.pvBytesPerCore,
                           uint64_t(cfg.btb.numSets) * kBlockBytes);
    return cfg;
}

double
fig9Stability(const WorkloadMix &mix, double edge_stability)
{
    if (!mix.branch.enabled)
        return 0.0;
    return edge_stability >= 0.0 ? edge_stability
                                 : mix.branch.edgeStability;
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
qosConfig(const SystemConfig &system, const QosOptions &opt,
          const QosSetting &s)
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

    SystemConfig cfg = system;
    cfg.mode = SimMode::Timing;
    cfg.workloadMix = mix.workloads;
    cfg.branchProfile = mix.branch;
    // No data prefetcher: the aggressor is the only other tenant,
    // so the BTB deltas isolate the proxy contention effect.
    cfg.prefetch = PrefetchMode::None;
    cfg.btb.mode = BtbMode::Virtualized;
    cfg.btb.qos = s.btb;

    VirtEngineConfig agg;
    agg.kind = VirtEngineKind::Agt;
    agg.numSets = opt.agtSets;
    // AGT entries are 54-bit payloads: 4 ways x 12-bit tags is the
    // widest packing that fits a 64-byte line.
    agg.assoc = 4;
    agg.tagBits = 12;
    agg.qos = s.aggressor;
    cfg.virtEngines = {agg};

    cfg.pvBytesPerCore = std::max<uint64_t>(
        cfg.pvBytesPerCore,
        uint64_t(cfg.btb.numSets + opt.agtSets) * kBlockBytes);
    return cfg;
}

std::string
sweptFieldSet(const SystemConfig &system, bool qos)
{
    // What fig9Config and qosConfig assign, in their order; `workload`
    // is shadowed by the mix they set.
    const SystemConfig d;
    auto differs = [](const auto &a, const auto &b) {
        return config::dumpConfig(a) != config::dumpConfig(b);
    };
    const std::pair<bool, const char *> swept[] = {
        {system.workload != d.workload, "system.workload"},
        {system.workloadMix != d.workloadMix, "system.workload_mix"},
        {differs(system.branchProfile, d.branchProfile),
         "system.branch_profile"},
        {system.prefetch != d.prefetch, "system.prefetch"},
        {system.btb.mode != d.btb.mode, "system.btb.mode"},
        {qos && differs(system.btb.qos, d.btb.qos), "system.btb.qos"},
        {qos && !system.virtEngines.empty(), "system.virt_engines"},
    };
    for (const auto &[set, path] : swept)
        if (set)
            return path;
    return "";
}

} // namespace pvsim
