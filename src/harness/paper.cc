#include "harness/paper.hh"

#include <algorithm>
#include <map>

#include "config/fields.hh"
#include "core/virt_pht.hh"
#include "harness/config_presets.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"

namespace pvsim {

namespace {

using Values = std::vector<std::pair<std::string, double>>;
using Workloads = std::vector<std::string>;

/** One simulation a figure reads, and its result. */
struct Job {
    enum Kind {
        Measured, ///< functional: warmup, reset stats, measure
        Timed,    ///< timing: warmup, reset stats, measure; the IPC
        Profiled, ///< functional: measureRefs / 2 from cold, as MPKI
    } kind;
    SystemConfig cfg;
    FunctionalResult functional;
    double ipc = 0.0;
    Values profile; ///< l1d_mpki, l1i_mpki, store_pct
};

void
execute(Job &job, const PaperBudget &b)
{
    if (job.kind == Job::Measured) {
        job.functional =
            runFunctionalMeasured(job.cfg, b.warmupRefs, b.measureRefs);
    } else if (job.kind == Job::Timed) {
        job.ipc = timedIpc(job.cfg, b.warmupRecords, b.measureRecords);
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
}

/**
 * The runs the figures read. Each figure's code runs twice: the
 * first pass queues the runs it asks for and reads zeros (every
 * figure guards its divisions), then all of them execute as one flat
 * job list, and the second pass reads the results and keeps its
 * rows. Runs of one kind and canonical config are queued once.
 */
class Runs
{
  public:
    explicit Runs(unsigned batches) : batches_(batches) {}

    const FunctionalResult &
    functional(const SystemConfig &cfg)
    {
        return get(Job::Measured, cfg).functional;
    }

    const Values &
    profile(const SystemConfig &cfg)
    {
        return get(Job::Profiled, cfg).profile;
    }

    /** Matched-pair speedup of cfg over base: batch b runs both
     *  with seedOffset b. */
    SpeedupResult
    speedup(const SystemConfig &base, const SystemConfig &cfg)
    {
        std::vector<double> base_ipcs, ipcs;
        for (unsigned b = 0; b < batches_; ++b) {
            SystemConfig x = base, y = cfg;
            x.seedOffset = y.seedOffset = b;
            base_ipcs.push_back(get(Job::Timed, x).ipc);
            ipcs.push_back(get(Job::Timed, y).ipc);
        }
        return speedupFromIpcs(base_ipcs, ipcs);
    }

    void
    row(const std::string &figure, const std::string &workload,
        const std::string &config, Values values,
        std::vector<std::pair<std::string, std::string>> text = {})
    {
        if (!planning_)
            rows.push_back({figure, workload, config, std::move(text),
                             std::move(values)});
    }

    /** Execute every queued run; the next pass reads the results. */
    void
    run(const PaperBudget &budget)
    {
        forEachBatch(unsigned(jobs.size()), [&](unsigned j) {
            execute(jobs[j], budget);
        });
        planning_ = false;
    }

    std::vector<Job> jobs;      ///< queued runs, each once
    std::vector<PaperRow> rows; ///< what the second pass emitted

  private:
    const Job &
    get(Job::Kind kind, const SystemConfig &cfg)
    {
        auto [it, fresh] = index_.emplace(
            std::to_string(kind) + config::dumpConfig(cfg), jobs.size());
        if (fresh) {
            pv_assert(planning_, "a figure read a run it did not plan");
            jobs.push_back({kind, cfg, {}, 0.0, {}});
        }
        static const Job zeros{};
        return planning_ ? zeros : jobs[it->second];
    }

    unsigned batches_;
    bool planning_ = true;
    std::map<std::string, size_t> index_;
};

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
            r.row(figure, wl, i ? geoms[i - 1].label() : "Infinite",
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
            r.row("fig6", wl, "PV-" + std::to_string(entries),
                  {{"l2_request_increase_pct", inc},
                   {"pv_l2_fill_pct", 100.0 * pv.pvL2FillRate}});
        }
    }
    const double n = double(wls.size());
    r.row("fig6", "average", "PV-8", {{"l2_request_increase_pct", sum8 / n}});
    r.row("fig6", "average", "PV-16",
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
            r.row("fig7", wl, "PV-" + std::to_string(entries), inc);
        }
    }
    r.row("fig7", "average", "PV-8",
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
        r.row("fig8", wl, "PV-8",
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
            SpeedupResult s = r.speedup(baselineConfig(wl), cfgs[i]);
            sums[i] += s.meanPct;
            r.row("fig9", wl, names[i],
                  {{"speedup_pct", s.meanPct}, {"ci_pct", s.ciPct}});
        }
    }
    for (int i = 0; i < 4; ++i)
        r.row("fig9", "average", names[i],
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
            r.row("fig10", wl, std::to_string(mb) + "MB", v);
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
        SpeedupResult sms = r.speedup(base, slow(smsConfig(wl, {1024, 11})));
        SpeedupResult pv = r.speedup(base, slow(pvConfig(wl, 8)));
        sum += sms.meanPct - pv.meanPct;
        r.row("fig11", wl, "SMS-1K",
              {{"speedup_pct", sms.meanPct}, {"ci_pct", sms.ciPct}});
        r.row("fig11", wl, "SMS-PV8",
              {{"speedup_pct", pv.meanPct},
               {"ci_pct", pv.ciPct},
               {"difference_pp", sms.meanPct - pv.meanPct}});
    }
    r.row("fig11", "average", "SMS-PV8",
          {{"difference_pp", sum / double(wls.size())}});
}

/** Table 1: the base machine, read off a built System so it cannot
 *  drift from the implementation. */
void
table1(Runs &r, const Workloads &)
{
    const SystemConfig cfg = baselineConfig("apache");
    System sys(cfg);
    r.row("table1", "all", "baseline",
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
        r.row("table2", wl, "baseline", v,
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
        r.row("table3", "all", g.label(),
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
    r.row("table3", "all", "SMS-PV8", pv);
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
             r.row("sec46", "all", "SMS-PV8", pvStorage());
         }},
    };
    return f;
}

/** One pass of opt's figures over r, in paperFigures() order. */
void
pass(Runs &r, const PaperOptions &opt)
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

std::vector<SystemConfig>
paperMachines(const PaperOptions &opt)
{
    Runs r(opt.batches);
    pass(r, opt);
    std::vector<SystemConfig> machines;
    for (const Job &j : r.jobs)
        machines.push_back(j.cfg);
    return machines;
}

std::vector<PaperRow>
paperRows(const PaperOptions &opt, const PaperBudget &budget)
{
    Runs r(opt.batches);
    pass(r, opt);
    r.run(budget);
    pass(r, opt);
    return std::move(r.rows);
}

} // namespace pvsim
