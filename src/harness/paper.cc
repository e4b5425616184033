#include "harness/paper.hh"

#include <algorithm>

#include "config/fields.hh"
#include "core/virt_pht.hh"
#include "harness/system.hh"

namespace pvsim {

// ---- The planner ------------------------------------------------------

TimedBatches
Runs::timed(const SystemConfig &cfg, const TenantContracts &contracts)
{
    TimedBatches t;
    for (unsigned b = 0; b < budget_.batches; ++b) {
        SystemConfig x = cfg;
        x.seedOffset = cfg.seedOffset + b;
        const Job &job = get(Job::Timed, x, contracts);
        t.ipcs.push_back(job.timed.ipc);
        t.sum += job.timed;
        t.cores.resize(job.cores.size());
        for (size_t c = 0; c < job.cores.size(); ++c)
            t.cores[c] += job.cores[c];
    }
    return t;
}

void
Runs::run()
{
    forEachBatch(unsigned(jobs_.size()),
                 [&](unsigned j) { execute(jobs_[j]); });
    planning_ = false;
}

std::vector<SystemConfig>
Runs::machines() const
{
    std::vector<SystemConfig> m;
    for (const Job &j : jobs_)
        m.push_back(j.cfg);
    return m;
}

const Runs::Job &
Runs::get(Job::Kind kind, const SystemConfig &cfg,
          const TenantContracts &contracts)
{
    auto [it, fresh] = index_.emplace(std::to_string(kind) +
                                          config::dumpConfig(cfg) +
                                          config::dumpConfig(contracts),
                                      jobs_.size());
    if (fresh) {
        pv_assert(planning_, "a figure read a run it did not plan");
        jobs_.push_back({kind, cfg, contracts, {}, {}, {}, {}});
    }
    static const Job zeros{};
    return planning_ ? zeros : jobs_[it->second];
}

void
Runs::execute(Job &job) const
{
    // A job builds and drops its System on this thread, and the
    // packet count is per thread: it must come back unchanged.
    const int64_t live_before = Packet::liveCount();
    const RunBudget &b = budget_;
    if (job.kind == Job::Measured) {
        job.functional =
            runFunctionalMeasured(job.cfg, b.warmupRefs, b.measureRefs);
    } else if (job.kind == Job::Timed) {
        job.timed = timedRun(job.cfg, b.warmupRecords, b.measureRecords,
                             job.contracts, &job.cores);
    } else { // MPKI: records are block-granular, hit rates mislead
        System sys(job.cfg);
        sys.runFunctional(b.measureRefs / 2);
        uint64_t d_miss = 0, i_miss = 0, stores = 0, records = 0;
        for (int c = 0; c < sys.numCores(); ++c) {
            d_miss += sys.l1d(c).demandMisses.value();
            i_miss += sys.l1i(c).demandMisses.value();
            stores += sys.core(c).stores.value();
            records += sys.core(c).recordsConsumed();
        }
        const double kilo = double(sys.totalInstructions()) / 1000.0;
        job.profile = {
            {"l1d_mpki", kilo ? double(d_miss) / kilo : 0.0},
            {"l1i_mpki", kilo ? double(i_miss) / kilo : 0.0},
            {"store_pct", 100.0 * double(stores) /
                              double(std::max<uint64_t>(1, records))}};
    }
    const int64_t leaked = Packet::liveCount() - live_before;
    if (leaked != 0)
        panic("%s: %lld packet%s still live after the run",
              job.cfg.label().c_str(), (long long)leaked,
              leaked == 1 ? "" : "s");
}

// ---- The paper's figures and tables -----------------------------------

namespace {

using Workloads = std::vector<std::string>;

/** A paper row: keyed figure/workload/config, then any text. */
void
row(Runs &r, const std::string &figure, const std::string &workload,
    const std::string &config, Values values, Text text = {})
{
    text.insert(text.begin(), {{"figure", figure},
                               {"workload", workload},
                               {"config", config}});
    r.row(std::move(text), std::move(values));
}

/** Matched-pair speedup of cfg over base: batch b runs both with
 *  the same seeds. */
SpeedupResult
speedup(Runs &r, const SystemConfig &base, const SystemConfig &cfg)
{
    return speedupFromIpcs(r.timed(base).ipcs, r.timed(cfg).ipcs);
}

/** A change as a share of the baseline's total, stacking as plotted. */
double
shareOf(double base_total, uint64_t before, uint64_t after)
{
    return base_total
               ? 100.0 * (double(after) - double(before)) / base_total
               : 0.0;
}

/** The PHT geometries of Figure 5 and Table 3. */
const std::vector<PhtGeometry> kSweep = {
    {1024, 16}, {1024, 11}, {512, 11}, {256, 11}, {128, 11},
    {64, 11},   {32, 11},   {16, 11},  {8, 11}};

/** Figures 4 and 5: coverage for Infinite, then each geometry. */
void
coverage(Runs &r, const char *figure, const Workloads &wls,
         const std::vector<PhtGeometry> &geoms)
{
    for (const std::string &wl : wls) {
        for (size_t i = 0; i <= geoms.size(); ++i) {
            const CoverageMetrics &c =
                r.functional(i ? smsConfig(wl, geoms[i - 1])
                               : smsInfiniteConfig(wl))
                    .coverage;
            row(r, figure, wl, i ? geoms[i - 1].label() : "Infinite",
                {{"covered_pct", c.coveredPct()},
                 {"uncovered_pct", c.uncoveredPct()},
                 {"overprediction_pct", c.overpredictionPct()}});
        }
    }
}

/** Figure 6: L2 requests of PV-8/PV-16 over SMS-1K-11a; L2 fills. */
void
fig6(Runs &r, const Workloads &wls)
{
    double sum8 = 0, sum16 = 0;
    for (const std::string &wl : wls) {
        const uint64_t base =
            r.functional(smsConfig(wl, {1024, 11})).traffic.l2Requests;
        for (unsigned entries : {8u, 16u}) {
            const FunctionalResult &pv = r.functional(pvConfig(wl, entries));
            const double inc = pctIncrease(base, pv.traffic.l2Requests);
            (entries == 8 ? sum8 : sum16) += inc;
            row(r, "fig6", wl, "PV-" + std::to_string(entries),
                {{"l2_request_increase_pct", inc},
                 {"pv_l2_fill_pct", 100.0 * pv.pvL2FillRate}});
        }
    }
    const double n = double(wls.size());
    row(r, "fig6", "average", "PV-8", {{"l2_request_increase_pct", sum8 / n}});
    row(r, "fig6", "average", "PV-16",
        {{"l2_request_increase_pct", sum16 / n}});
}

/** Off-chip increase of pv over base: L2 misses + writebacks. */
Values
offChipIncrease(const TrafficMetrics &base, const TrafficMetrics &pv)
{
    const double total = double(base.l2Misses() + base.l2Writebacks());
    const double miss = shareOf(total, base.l2Misses(), pv.l2Misses());
    const double wb = shareOf(total, base.l2Writebacks(), pv.l2Writebacks());
    return {{"miss_increase_pct", miss},
            {"writeback_increase_pct", wb},
            {"total_increase_pct", miss + wb}};
}

/** Figure 7: off-chip traffic increase of PV-8/PV-16. */
void
fig7(Runs &r, const Workloads &wls)
{
    double sum = 0;
    for (const std::string &wl : wls) {
        const TrafficMetrics &base =
            r.functional(smsConfig(wl, {1024, 11})).traffic;
        for (unsigned entries : {8u, 16u}) {
            Values inc = offChipIncrease(
                base, r.functional(pvConfig(wl, entries)).traffic);
            if (entries == 8)
                sum += inc.back().second;
            row(r, "fig7", wl, "PV-" + std::to_string(entries), inc);
        }
    }
    row(r, "fig7", "average", "PV-8",
        {{"total_increase_pct", sum / double(wls.size())}});
}

/** Figure 8: PV-8's off-chip increase, application vs PV data. */
void
fig8(Runs &r, const Workloads &wls)
{
    for (const std::string &wl : wls) {
        const TrafficMetrics &b =
            r.functional(smsConfig(wl, {1024, 11})).traffic;
        const TrafficMetrics &pv = r.functional(pvConfig(wl, 8)).traffic;
        const double misses = double(b.l2Misses());
        const double wbs = double(b.l2Writebacks());
        row(r, "fig8", wl, "PV-8",
            {{"miss_app_pct", shareOf(misses, b.l2MissesApp,
                                      pv.l2MissesApp)},
             {"miss_pv_pct", shareOf(misses, b.l2MissesPv, pv.l2MissesPv)},
             {"wb_app_pct", shareOf(wbs, b.l2WritebacksApp,
                                    pv.l2WritebacksApp)},
             {"wb_pv_pct", shareOf(wbs, b.l2WritebacksPv,
                                   pv.l2WritebacksPv)}});
    }
}

/** Figure 9: speedup over the no-prefetch baseline (timing). */
void
fig9(Runs &r, const Workloads &wls)
{
    const char *names[] = {"SMS-1K", "SMS-16", "SMS-8", "SMS-PV8"};
    double sums[4] = {0, 0, 0, 0};
    for (const std::string &wl : wls) {
        const SystemConfig cfgs[] = {smsConfig(wl, {1024, 11}),
                                     smsConfig(wl, {16, 11}),
                                     smsConfig(wl, {8, 11}), pvConfig(wl, 8)};
        for (int i = 0; i < 4; ++i) {
            SpeedupResult s = speedup(r, baselineConfig(wl), cfgs[i]);
            sums[i] += s.meanPct;
            row(r, "fig9", wl, names[i],
                {{"speedup_pct", s.meanPct}, {"ci_pct", s.ciPct}});
        }
    }
    for (int i = 0; i < 4; ++i)
        row(r, "fig9", "average", names[i],
            {{"speedup_pct", sums[i] / double(wls.size())}});
}

/** Figure 10: Figure 7's PV-8 increase for a 2, 4 and 8 MB L2. */
void
fig10(Runs &r, const Workloads &wls)
{
    for (const std::string &wl : wls) {
        for (uint64_t mb : {2u, 4u, 8u}) {
            SystemConfig base = smsConfig(wl, {1024, 11});
            SystemConfig pv = pvConfig(wl, 8);
            base.l2SizeBytes = pv.l2SizeBytes = mb << 20;
            Values v = offChipIncrease(r.functional(base).traffic,
                                       r.functional(pv).traffic);
            v.insert(v.begin(), {"l2_size_bytes", double(mb << 20)});
            row(r, "fig10", wl, std::to_string(mb) + "MB", v);
        }
    }
}

/** Figure 11: Figure 9 with an 8/16-cycle (tag/data) L2. */
void
fig11(Runs &r, const Workloads &wls)
{
    auto slow = [](SystemConfig cfg) {
        cfg.l2TagLatency = 8;
        cfg.l2DataLatency = 16;
        return cfg;
    };
    double sum = 0;
    for (const std::string &wl : wls) {
        const SystemConfig base = slow(baselineConfig(wl));
        SpeedupResult sms = speedup(r, base, slow(smsConfig(wl, {1024, 11})));
        SpeedupResult pv = speedup(r, base, slow(pvConfig(wl, 8)));
        sum += sms.meanPct - pv.meanPct;
        row(r, "fig11", wl, "SMS-1K",
            {{"speedup_pct", sms.meanPct}, {"ci_pct", sms.ciPct}});
        row(r, "fig11", wl, "SMS-PV8",
            {{"speedup_pct", pv.meanPct},
             {"ci_pct", pv.ciPct},
             {"difference_pp", sms.meanPct - pv.meanPct}});
    }
    row(r, "fig11", "average", "SMS-PV8",
        {{"difference_pp", sum / double(wls.size())}});
}

/** Table 1: the base machine, read off a built System so it cannot
 *  drift from the implementation. */
void
table1(Runs &r, const Workloads &)
{
    const SystemConfig cfg = baselineConfig("apache");
    System sys(cfg);
    row(r, "table1", "all", "baseline",
        {{"cores", sys.numCores()}, {"core_width", cfg.coreWidth},
         {"store_buffer_entries", cfg.storeBufferEntries},
         {"l1_size_bytes", sys.l1d(0).sizeBytes()},
         {"l1_assoc", sys.l1d(0).assoc()},
         {"l1_latency", cfg.l1TagLatency + cfg.l1DataLatency},
         {"l2_size_bytes", sys.l2().sizeBytes()},
         {"l2_assoc", sys.l2().assoc()}, {"l2_banks", cfg.l2Banks},
         {"l2_tag_latency", cfg.l2TagLatency},
         {"l2_data_latency", cfg.l2DataLatency},
         {"mem_bytes", cfg.memBytes}, {"mem_latency", cfg.memLatency},
         {"pv_bytes_per_core", cfg.pvBytesPerCore}});
}

/** Table 2: each preset's description and pressure. */
void
table2(Runs &r, const Workloads &wls)
{
    for (const std::string &wl : wls) {
        const WorkloadParams p = workloadPreset(wl);
        Values v = r.profile(baselineConfig(wl));
        v.insert(v.begin(),
                 {"trigger_keys", double(p.numTriggerPcs) * p.offsetsPerPc});
        row(r, "table2", wl, "baseline", v,
            {{"description", workloadDescription(wl)}});
    }
}

/** The paper's virtualized design, a 1K-11a PHT alone behind the
 *  default 8-entry PVCache: its dedicated storage itemized, against
 *  the dedicated 1K-11a table it replaces (Section 4.6). */
Values
pvStorage()
{
    SimContext ctx(SimMode::Functional);
    PvProxy proxy(ctx, PvProxyParams{}, 0xB0000000, 1024 * kBlockBytes);
    VirtualizedPht vpht(proxy, "pht", 1024, 11);
    const PvProxy::StorageBreakdown b = proxy.storageBreakdown();
    const double dedicated = PhtGeometry{1024, 11}.storageBits() / 8.0;
    return {{"pvcache_data_bytes", b.pvCacheData / 8.0},
            {"tag_bytes", b.tags / 8.0},
            {"dirty_bytes", b.dirtyBits / 8.0},
            {"mshr_bytes", b.mshrs / 8.0},
            {"evict_buffer_bytes", b.evictBuffer / 8.0},
            {"pattern_buffer_bytes", b.patternBuffer / 8.0},
            {"total_bytes", b.totalBytes()},
            {"dedicated_bytes", dedicated},
            {"reduction_x", dedicated / b.totalBytes()},
            {"table_bytes", vpht.tableBytes()}};
}

/** Table 3: dedicated storage per PHT geometry (32-bit patterns
 *  throughout; the paper's 16- and 8-set rows imply 40-bit ones),
 *  and the virtualized design's. */
void
table3(Runs &r, const Workloads &)
{
    for (const PhtGeometry &g : kSweep) {
        row(r, "table3", "all", g.label(),
            {{"tag_bytes", double(g.entries() * g.tagBits()) / 8.0},
             {"pattern_bytes", double(g.entries() * 32) / 8.0},
             {"total_bytes", double(g.storageBits()) / 8.0}});
    }
    Values pv;
    for (const auto &v : pvStorage()) {
        if (v.first == "total_bytes" || v.first == "table_bytes" ||
            v.first == "reduction_x")
            pv.push_back(v);
    }
    row(r, "table3", "all", "SMS-PV8", pv);
}

using Figure = void (*)(Runs &, const Workloads &);

const std::vector<std::pair<std::string, Figure>> &
figures()
{
    static const std::vector<std::pair<std::string, Figure>> f = {
        {"fig4",
         [](Runs &r, const Workloads &w) {
             coverage(r, "fig4", w,
                      {{1024, 16}, {1024, 11}, {16, 11}, {8, 11}});
         }},
        {"fig5",
         [](Runs &r, const Workloads &w) {
             coverage(r, "fig5", w, kSweep);
         }},
        {"fig6", fig6},     {"fig7", fig7},     {"fig8", fig8},
        {"fig9", fig9},     {"fig10", fig10},   {"fig11", fig11},
        {"table1", table1}, {"table2", table2}, {"table3", table3},
        {"sec46",
         [](Runs &r, const Workloads &) {
             row(r, "sec46", "all", "SMS-PV8", pvStorage());
         }},
    };
    return f;
}

} // anonymous namespace

const std::vector<std::string> &
paperFigures()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto &f : figures())
            n.push_back(f.first);
        return n;
    }();
    return names;
}

void
paperRows(Runs &r, const PaperOptions &opt)
{
    const std::vector<std::string> &want = opt.figures;
    for (const auto &[name, figure] : figures()) {
        if (!want.empty() && !std::count(want.begin(), want.end(), name))
            continue;
        // Figure 5 shows three representative workloads.
        figure(r, !opt.workloads.empty() ? opt.workloads
                  : name == "fig5" ? Workloads{"apache", "oracle", "qry17"}
                                   : paperWorkloads());
    }
}

// ---- The other scenario kinds -----------------------------------------

namespace {

/** 100 * num / den, or 0 when den is 0. */
double
pct(uint64_t num, uint64_t den)
{
    return den ? 100.0 * double(num) / double(den) : 0.0;
}

/** What a set of timed runs cost the host. */
Values
hostValues(const TimedRun &t)
{
    return {{"wall_seconds", t.wallSeconds},
            {"records", double(t.records)},
            {"records_per_sec", t.recordsPerSec()},
            {"events", double(t.eventsExecuted)}};
}

/** A timed config's mean IPC over its batches, and its host cost. */
Values
timedValues(const TimedBatches &t)
{
    Values v = hostValues(t.sum);
    v.insert(v.begin(), {"ipc", t.sum.ipc / double(t.ipcs.size())});
    return v;
}

} // anonymous namespace

void
timedRows(Runs &r, const SystemConfig &cfg)
{
    r.row({}, timedValues(r.timed(cfg)));
}

void
functionalRows(Runs &r, const SystemConfig &cfg)
{
    const FunctionalResult &f = r.functional(cfg);
    r.row({}, {{"covered_pct", f.coverage.coveredPct()},
               {"uncovered_pct", f.coverage.uncoveredPct()},
               {"overprediction_pct", f.coverage.overpredictionPct()},
               {"l2_requests", double(f.traffic.l2Requests)},
               {"l2_requests_pv", double(f.traffic.l2RequestsPv)},
               {"l2_misses", double(f.traffic.l2Misses())},
               {"l2_writebacks", double(f.traffic.l2Writebacks())},
               {"offchip_bytes", double(f.traffic.offChipBytes())},
               {"pv_l2_fill_rate", f.pvL2FillRate}});
}

void
fig9Rows(Runs &r, const SystemConfig &system, const Fig9Options &opt)
{
    const std::vector<WorkloadMix> mixes =
        opt.mixes.empty() ? presetMixes() : opt.mixes;
    const std::vector<double> stabilities =
        opt.edgeStabilities.empty() ? std::vector<double>{kFig9MixStability}
                                    : opt.edgeStabilities;
    for (double stability : stabilities) {
        for (const WorkloadMix &mix : mixes) {
            const TimedBatches ded = r.timed(
                fig9Config(system, mix, BtbMode::Dedicated, stability));
            const TimedBatches virt = r.timed(
                fig9Config(system, mix, BtbMode::Virtualized, stability));
            const SpeedupResult s = speedupFromIpcs(ded.ipcs, virt.ipcs);
            const TimedRun &v = virt.sum;
            TimedRun both = ded.sum;
            both += v;
            const double n = double(ded.ipcs.size());
            Values values = {
                {"edge_stability", fig9Stability(mix, stability)},
                {"dedicated_ipc", ded.sum.ipc / n},
                {"virtualized_ipc", v.ipc / n},
                {"dedicated_hit_pct", 100.0 * ded.sum.btbHitRate()},
                {"virtualized_hit_pct", 100.0 * v.btbHitRate()},
                {"speedup_pct", s.meanPct},
                {"ci_pct", s.ciPct},
                {"virtualized_avail_redirect_pct",
                 100.0 * v.btbAvailabilityRedirectRate()},
                {"prefetch_fills", double(v.prefetchFills)},
                {"prefetch_useful", double(v.prefetchUseful)},
                {"prefetch_drops", double(v.prefetchDrops)},
                {"victim_hits", double(v.victimHits)}};
            for (const auto &h : hostValues(both))
                values.push_back(h);
            values.push_back({"jobs_effective", r.workers()});
            r.row({{"mix", mix.name}}, std::move(values));
        }
    }
}

void
qosRows(Runs &r, const SystemConfig &system, const QosOptions &opt)
{
    const std::vector<QosSetting> settings =
        opt.settings.empty() ? presetQosSettings() : opt.settings;
    const TimedBatches base = r.timed(qosConfig(system, opt, settings[0]));
    const double base_rate = 100.0 * base.sum.btbAvailabilityRedirectRate();
    for (const QosSetting &setting : settings) {
        const TimedBatches mine = r.timed(qosConfig(system, opt, setting));
        const TimedRun &t = mine.sum;
        const double rate = 100.0 * t.btbAvailabilityRedirectRate();
        Values values = {
            {"btb_weight", setting.btb.weight},
            {"aggressor_weight", setting.aggressor.weight},
            {"ipc", t.ipc / double(mine.ipcs.size())},
            {"avail_redirect_pct", rate},
            {"btb_hit_pct", 100.0 * t.btbHitRate()},
            {"btb_drop_pct", pct(t.btbDrops, t.btbOps)},
            {"aggressor_drop_pct", pct(t.aggressorDrops, t.aggressorOps)},
            {"btb_fill_latency",
             t.btbFills ? double(t.btbFillTicks) / double(t.btbFills) : 0.0},
            {"ipc_delta_pct", speedupFromIpcs(base.ipcs, mine.ipcs).meanPct},
            // Positive: the BTB is better protected than at the first.
            {"avail_improvement_pct",
             base_rate > 0.0 ? 100.0 * (base_rate - rate) / base_rate : 0.0}};
        for (const auto &h : hostValues(t))
            values.push_back(h);
        values.push_back({"jobs_effective", r.workers()});
        r.row({{"setting", setting.label}}, std::move(values));
    }
}

void
qosHeteroRows(Runs &r, const SystemConfig &system, const QosOptions &opt)
{
    const std::vector<WorkloadMix> mixes = presetMixes();
    const std::vector<QosSetting> presets = presetQosSettings();
    // The control group keeps the equal contract in the protected run
    // too, so its row isolates the cross-cluster side effects of
    // protecting the others.
    const QosSetting *contracts[4] = {&presets[0],  // equal (control)
                                      &presets[2],  // 4:1
                                      &presets[4],  // equal+floor
                                      &presets[3]}; // 8:1
    const size_t cores = size_t(system.numCores);
    auto group = [&](size_t c) { return c * 4 / cores; };

    // Both runs share one config, so one address map and one seed
    // derivation: they differ only in the arbiter's entitlements.
    SystemConfig cfg = qosConfig(system, opt, presets[0]);
    cfg.workloadMix.clear();
    TenantContracts protect;
    for (size_t c = 0; c < cores; ++c) {
        const std::vector<std::string> &w = mixes[group(c)].workloads;
        cfg.workloadMix.push_back(w[c % w.size()]);
        // Table 0 is the implicit virtualized BTB, table 1 the
        // registered AGT aggressor (see qosConfig).
        protect.push_back({contracts[group(c)]->btb,
                           contracts[group(c)]->aggressor});
    }
    const TimedBatches ref = r.timed(cfg);
    const TimedBatches prot = r.timed(cfg, protect);

    for (size_t g = 0; g < 4; ++g) {
        TimedRun p, q; // the group's cores, protected and reference
        for (size_t c = 0; c < prot.cores.size(); ++c) {
            if (group(c) == g) {
                p += prot.cores[c];
                q += ref.cores[c];
            }
        }
        const double rate =
            pct(p.btbUnavailable, p.btbHits + p.btbMispredicts);
        const double ref_rate =
            pct(q.btbUnavailable, q.btbHits + q.btbMispredicts);
        const QosSetting &s = *contracts[g];
        r.row({{"cluster", mixes[g].name + "/" + s.label},
               {"mix", mixes[g].name},
               {"contract", s.label}},
              {{"btb_weight", s.btb.weight},
               {"aggressor_weight", s.aggressor.weight},
               {"cores", double(cores / 4)},
               {"avail_redirect_pct", rate},
               {"ref_avail_redirect_pct", ref_rate},
               {"avail_improvement_pct",
                ref_rate > 0.0 ? 100.0 * (ref_rate - rate) / ref_rate : 0.0},
               {"btb_hit_pct", pct(p.btbHits, p.btbHits + p.btbMispredicts)},
               {"btb_drop_pct", pct(p.btbDrops, p.btbOps)},
               {"ref_btb_drop_pct", pct(q.btbDrops, q.btbOps)},
               {"aggressor_drop_pct", pct(p.aggressorDrops, p.aggressorOps)}});
    }
    r.row({{"run", "reference"}}, timedValues(ref));
    r.row({{"run", "protected"}}, timedValues(prot));
}

} // namespace pvsim
