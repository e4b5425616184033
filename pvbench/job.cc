/**
 * @file
 * pvbench_job — one benchmark job, run in its own process so that a
 * simulator panic (SIGABRT) fails this job only.
 *
 *   pvbench_job <scenario.json> <seed> <traced: 0|1>
 *
 * The job loads a "timed" or "functional" scenario, sets its seed,
 * builds the System, warms up, resets the statistics, measures,
 * collects and tears down. Every step is one call into a layer's
 * public API, timed from out here as a span (name, start, end,
 * parent). Nothing inside the simulator is instrumented.
 *
 * A traced job also reads the layers' public statistics into
 * per-layer counters at the same boundaries. After teardown it times
 * a standalone SyntheticWorkload::nextBatch pass over the job's exact
 * per-core workload parameters and seeds.
 *
 * Every job also reports its pieces: the host seconds of each
 * contiguous step from scenario load to teardown, in order, with a
 * functional phase split into equal calls (see runPhase). Each piece
 * is deterministic work, so the benchmark can take each piece's
 * fastest time over repeated jobs.
 *
 * Output: one JSON object on stdout. Exit status: 0 when the job ran
 * and its invariants held, 1 on an invariant violation or exception,
 * 2 on bad usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/scenario.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "trace/synthetic_gen.hh"

using namespace pvsim;

namespace {

/** One timed step of the job; parent is an index into the span list
 *  (-1 for the job's root span). */
struct Span {
    std::string name;
    int parent = -1;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Counts read at the span's closing boundary (traced jobs). */
    std::vector<std::pair<std::string, double>> counts;
};

double
nowUs()
{
    // steady_clock is CLOCK_MONOTONIC on Linux, shared by every
    // process, so spans of successive jobs line up on one timeline.
    using namespace std::chrono;
    return duration<double, std::micro>(
               steady_clock::now().time_since_epoch())
        .count();
}

class SpanLog
{
  public:
    int
    open(const char *name, int parent)
    {
        spans_.push_back(Span{name, parent, nowUs(), 0.0, {}});
        return int(spans_.size()) - 1;
    }

    void close(int id) { spans_.at(size_t(id)).endUs = nowUs(); }

    void
    count(int id, const char *name, double v)
    {
        spans_.at(size_t(id)).counts.emplace_back(name, v);
    }

    double
    seconds(int id) const
    {
        const Span &s = spans_.at(size_t(id));
        return (s.endUs - s.startUs) * 1e-6;
    }

    /** Seconds from the start of `from` to the end of `to`. */
    double
    secondsBetween(int from, int to) const
    {
        return (spans_.at(size_t(to)).endUs -
                spans_.at(size_t(from)).startUs) *
               1e-6;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

double
ratio(double num, double den, double scale = 1.0)
{
    return den > 0.0 ? scale * num / den : 0.0;
}

/** Per-tenant proxy counters summed over the cores' proxies. */
struct TenantTotals {
    uint64_t ops = 0, hits = 0, misses = 0, drops = 0, qosDrops = 0;
    uint64_t fills = 0, fillTicks = 0, writebacks = 0;
    uint64_t prefetchFills = 0, prefetchUseful = 0, victimHits = 0;

    void
    add(const PvProxy::EngineStats &s)
    {
        ops += s.operations.value();
        hits += s.hits.value();
        misses += s.misses.value();
        drops += s.drops.value();
        qosDrops += s.qosDrops.value();
        fills += s.fills.value();
        fillTicks += s.fillLatencyTicks.value();
        writebacks += s.writebacks.value();
        prefetchFills += s.prefetchFills.value();
        prefetchUseful += s.prefetchUseful.value();
        victimHits += s.victimHits.value();
    }
};

using Counters = std::vector<std::pair<std::string, double>>;

void
putTenant(Counters &out, const std::string &prefix,
          const TenantTotals &t, double records)
{
    out.emplace_back(prefix + ".ops_per_record", ratio(t.ops, records));
    out.emplace_back(prefix + ".hit_pct",
                     ratio(t.hits, t.hits + t.misses, 100.0));
    out.emplace_back(prefix + ".fill_latency_mean_ticks",
                     ratio(t.fillTicks, t.fills));
    out.emplace_back(prefix + ".drop_pct", ratio(t.drops, t.ops, 100.0));
    out.emplace_back(prefix + ".qos_drop_pct",
                     ratio(t.qosDrops, t.ops, 100.0));
    out.emplace_back(prefix + ".writebacks_per_kop",
                     ratio(t.writebacks, t.ops, 1000.0));
    out.emplace_back(prefix + ".prefetch_useful_pct",
                     ratio(t.prefetchUseful, t.prefetchFills, 100.0));
    out.emplace_back(prefix + ".victim_hit_pct",
                     ratio(t.victimHits, t.misses, 100.0));
}

/**
 * The per-layer counters of a measured System, read from the layers'
 * public statistics after the measure phase. Ratios with an empty
 * base read 0 (e.g. proxy metrics on a machine without a proxy).
 */
Counters
layerCounters(System &sys, double records, uint64_t events,
              double measure_s)
{
    Counters out;
    const int n = sys.numCores();

    out.emplace_back("sim.events_per_record", ratio(events, records));
    out.emplace_back("sim.ns_per_event", ratio(measure_s, events, 1e9));
    out.emplace_back("sim.event_pool_nodes",
                     double(sys.ctx().baseEvents().poolCapacity()));

    uint64_t l1d_acc = 0, l1d_miss = 0, l1i_acc = 0, l1i_miss = 0;
    for (int c = 0; c < n; ++c) {
        l1d_acc += sys.l1d(c).demandAccesses.value();
        l1d_miss += sys.l1d(c).demandMisses.value();
        l1i_acc += sys.l1i(c).demandAccesses.value();
        l1i_miss += sys.l1i(c).demandMisses.value();
    }
    Cache &l2 = sys.l2();
    const TrafficMetrics tr = trafficOf(sys);
    out.emplace_back("mem.l2.mshr_rejects_per_record",
                     ratio(l2.mshrRejects.value(), records));
    out.emplace_back("mem.l1d.miss_pct", ratio(l1d_miss, l1d_acc, 100.0));
    out.emplace_back("mem.l1i.miss_pct", ratio(l1i_miss, l1i_acc, 100.0));
    out.emplace_back("mem.l2.miss_pct",
                     ratio(tr.l2Misses(), tr.l2Requests, 100.0));
    out.emplace_back("mem.l2.requests_per_record",
                     ratio(tr.l2Requests, records));
    out.emplace_back("mem.l2.pv_request_share",
                     ratio(tr.l2RequestsPv, tr.l2Requests));
    out.emplace_back("mem.l2.miss_latency_mean_ticks",
                     l2.missLatency.mean());
    out.emplace_back("mem.dram.offchip_bytes_per_record",
                     ratio(tr.offChipBytes(), records));

    // Whole-proxy counters, then the same per tenant. The proxy bumps
    // its aggregate counters together with the tenant's, so `whole`
    // sums the tenants; only coalesced operations are aggregate-only.
    TenantTotals whole;
    uint64_t coalesced = 0;
    // Tenants by stats scope name: the implicit SMS PHT and BTB
    // tenants, and the AGT registered as "aggressor".
    std::vector<std::pair<std::string, TenantTotals>> tenants = {
        {"pht", {}}, {"btb", {}}, {"aggressor", {}}};
    for (int c = 0; c < n; ++c) {
        PvProxy *p = sys.pvProxy(c);
        if (!p)
            continue;
        coalesced += p->coalescedOps.value();
        for (const auto &e : sys.engines(c)) {
            const PvProxy::EngineStats &s = p->engineStats(e->tableId());
            whole.add(s);
            for (auto &t : tenants) {
                if (t.first == e->engineName())
                    t.second.add(s);
            }
        }
    }
    putTenant(out, "core.pv", whole, records);
    out.emplace_back("core.pv.coalesced_pct",
                     ratio(coalesced, whole.ops, 100.0));
    out.emplace_back("core.pv.prefetch_fills", double(whole.prefetchFills));
    for (const auto &t : tenants)
        putTenant(out, "core.pv." + t.first, t.second, records);

    uint64_t insts = 0, load_st = 0, fetch_st = 0, store_st = 0;
    uint64_t mispredict_st = 0, btb_hits = 0, btb_miss = 0, btb_unavail = 0;
    for (int c = 0; c < n; ++c) {
        TraceCore &core = sys.core(c);
        insts += core.instsRetired.value();
        load_st += core.loadStallCycles.value();
        fetch_st += core.fetchStallCycles.value();
        store_st += core.storeStallCycles.value();
        mispredict_st += core.mispredictStallCycles.value();
        btb_hits += core.btbHits.value();
        btb_miss += core.btbMispredicts.value();
        btb_unavail += core.btbUnavailable.value();
    }
    out.emplace_back("cpu.load_stall_cycles_per_ki",
                     ratio(load_st, insts, 1000.0));
    out.emplace_back("cpu.fetch_stall_cycles_per_ki",
                     ratio(fetch_st, insts, 1000.0));
    out.emplace_back("cpu.store_stall_cycles_per_ki",
                     ratio(store_st, insts, 1000.0));
    out.emplace_back("cpu.mispredict_stall_cycles_per_ki",
                     ratio(mispredict_st, insts, 1000.0));
    out.emplace_back("cpu.btb_hit_pct",
                     ratio(btb_hits, btb_hits + btb_miss, 100.0));
    out.emplace_back("cpu.btb_avail_redirect_pct",
                     ratio(btb_unavail, btb_hits + btb_miss, 100.0));

    const CoverageMetrics cov = coverageOf(sys);
    uint64_t pht_hits = 0, pht_lookups = 0;
    for (int c = 0; c < n; ++c) {
        if (SmsPrefetcher *sms = sys.sms(c)) {
            pht_hits += sms->phtHits.value();
            pht_lookups += sms->phtHits.value() + sms->phtMisses.value();
        }
    }
    out.emplace_back("prefetch.covered_pct", cov.coveredPct());
    out.emplace_back("prefetch.overprediction_pct",
                     cov.overpredictionPct());
    out.emplace_back("prefetch.pht_hit_pct",
                     ratio(pht_hits, pht_lookups, 100.0));
    return out;
}

/**
 * The standalone generator pass: every core's SyntheticWorkload,
 * built from the same preset, seed offset and branch profile System
 * uses, pulled through nextBatch for `records` records. Returns a
 * checksum of the records so the pass cannot be optimized away and
 * repeated jobs can be compared.
 */
uint64_t
generatorPass(const SystemConfig &cfg, uint64_t records)
{
    std::vector<TraceRecord> buf(TraceCore::kBatchRecords);
    uint64_t sum = 0;
    for (int c = 0; c < cfg.numCores; ++c) {
        WorkloadParams wp = workloadPreset(cfg.workloadFor(c));
        wp.seed += cfg.seedOffset;
        cfg.branchProfile.applyTo(wp);
        SyntheticWorkload gen(wp, c);
        uint64_t left = records;
        while (left > 0) {
            size_t want = size_t(std::min<uint64_t>(left, buf.size()));
            size_t got = gen.nextBatch(buf.data(), want);
            for (size_t i = 0; i < got; ++i)
                sum = sum * 31 + buf[i].addr + buf[i].pc;
            left -= got;
            if (got < want)
                break;
        }
    }
    return sum;
}

/**
 * Functional phases run as this many equal runFunctional calls. The
 * cores step round-robin in whole chunks, so calls of whole chunks
 * leave the run exactly as one call would. A timing phase stays one
 * runTiming call: every call drains the machine, which would change
 * the run.
 */
constexpr uint64_t kFunctionalSlices = 10;

/** Runs one phase of `records` per core, appends the host seconds of
 *  each call to `pieces`, and returns the timing run's finish tick. */
Tick
runPhase(System &sys, const SystemConfig &cfg, uint64_t records,
         std::vector<double> &pieces)
{
    Tick finish = 0;
    if (cfg.mode == SimMode::Timing) {
        const double t0 = nowUs();
        if (records > 0)
            finish = sys.runTiming(records);
        pieces.push_back((nowUs() - t0) * 1e-6);
        return finish;
    }
    const uint64_t unit =
        kFunctionalSlices * std::max<uint64_t>(1, cfg.functionalChunk);
    if (records % unit != 0)
        throw json::ConfigError(
            "functional phases must be a multiple of " +
            std::to_string(unit) + " refs per core, got " +
            std::to_string(records));
    for (uint64_t i = 0; i < kFunctionalSlices; ++i) {
        const double t0 = nowUs();
        sys.runFunctional(records / kFunctionalSlices);
        pieces.push_back((nowUs() - t0) * 1e-6);
    }
    return finish;
}

void
printCounts(std::ostream &os,
            const std::vector<std::pair<std::string, double>> &kv)
{
    os << "{";
    for (size_t i = 0; i < kv.size(); ++i) {
        os << (i ? ", " : "") << json::quote(kv[i].first) << ": "
           << kv[i].second;
    }
    os << "}";
}

int
runJob(const std::string &path, uint64_t seed, bool traced)
{
    SpanLog log;
    std::vector<std::string> errors;
    const int root = log.open("job", -1);

    int span = log.open("config.load", root);
    Scenario sc = loadScenarioFile(path);
    const bool timed = sc.kind == "timed";
    if (!timed && sc.kind != "functional")
        throw json::ConfigError(path + ": pvbench runs only timed or "
                                       "functional scenarios");
    SystemConfig cfg = sc.system;
    cfg.mode = timed ? SimMode::Timing : SimMode::Functional;
    cfg.seedOffset = seed;
    log.close(span);
    const int load_span = span;

    const int64_t live_packets = Packet::liveCount();
    span = log.open("harness.build", root);
    auto sys = std::make_unique<System>(cfg);
    log.close(span);
    const double setup_s = log.secondsBetween(load_span, span);

    // The benchmark measures the plain serial event loop; a default
    // that silently engaged the sharded machinery would swap it.
    const unsigned shards = sys->timingShardsEffective();
    if (shards != 1 || sys->shardedTiming())
        errors.push_back("timing_shards effective " +
                         std::to_string(shards) + " (want 1, serial)");

    const uint64_t warmup = timed ? sc.warmupRecords : sc.warmupRefs;
    const uint64_t measure = timed ? sc.measureRecords : sc.measureRefs;
    std::vector<double> pieces = {setup_s};

    span = log.open("harness.warmup", root);
    runPhase(*sys, cfg, warmup, pieces);
    log.close(span);
    if (traced)
        log.count(span, "events", double(sys->eventsExecuted()));

    span = log.open("stats.reset", root);
    const Tick start_tick = sys->ctx().curTick();
    sys->resetStats();
    log.close(span);
    pieces.push_back(log.seconds(span));

    const uint64_t events_before = sys->eventsExecuted();
    const size_t measure_first = pieces.size();
    const int measure_span = log.open("harness.measure", root);
    const Tick finish = runPhase(*sys, cfg, measure, pieces);
    log.close(measure_span);
    const size_t measure_end = pieces.size();
    const double measure_s = log.seconds(measure_span);
    const uint64_t events = sys->eventsExecuted() - events_before;

    span = log.open("stats.collect", root);
    std::ostringstream dump;
    sys->ctx().dumpStats(dump);
    const std::string digest = config::fingerprintHex(
        config::fnv1a(dump.str()));
    uint64_t records = 0;
    for (int c = 0; c < sys->numCores(); ++c) {
        const uint64_t got = sys->core(c).recordsConsumed();
        records += got;
        if (got != measure)
            errors.push_back("core " + std::to_string(c) + " consumed " +
                             std::to_string(got) + " of " +
                             std::to_string(measure) + " records");
    }
    double outcome = 0.0;
    if (timed) {
        outcome = aggregateIpc(sys->totalInstructions(),
                               finish - start_tick);
        if (!(outcome > 0.0 && outcome <= double(cfg.coreWidth)))
            errors.push_back("IPC out of range");
        if (!sys->quiesced())
            errors.push_back("system not quiesced after measure");
        if (events == 0)
            errors.push_back("timing run executed no events");
    } else {
        outcome = coverageOf(*sys).coveredPct();
        if (!(outcome >= 0.0 && outcome <= 100.0))
            errors.push_back("coverage out of range");
    }
    Counters counters;
    if (traced) {
        counters = layerCounters(*sys, double(records), events, measure_s);
        counters.emplace_back("cpu.ipc", timed ? outcome : 0.0);
    }
    log.close(span);
    pieces.push_back(log.seconds(span));
    if (traced) {
        log.count(measure_span, "events", double(events));
        log.count(measure_span, "records", double(records));
        log.count(measure_span, "ticks", double(finish - start_tick));
    }

    span = log.open("harness.teardown", root);
    sys.reset();
    log.close(span);
    pieces.push_back(log.seconds(span));
    const double job_s = log.secondsBetween(load_span, span);
    if (Packet::liveCount() != live_packets)
        errors.push_back("packets leaked across the System's lifetime");

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mib = double(ru.ru_maxrss) / 1024.0;

    uint64_t gen_sum = 0;
    if (traced) {
        const uint64_t per_core = warmup + measure;
        span = log.open("trace.gen", root);
        gen_sum = generatorPass(cfg, per_core);
        log.close(span);
        const double gen_records = double(per_core) * cfg.numCores;
        log.count(span, "records", gen_records);
        counters.emplace_back("trace.ns_per_record",
                              ratio(log.seconds(span), gen_records, 1e9));
    }
    log.close(root);

    std::ostringstream os;
    os << std::setprecision(10);
    os << "{\"workload\": " << json::quote(sc.name)
       << ", \"seed\": " << seed << ", \"traced\": " << traced
       << ", \"digest\": \"" << digest << "\""
       << ", \"timing_shards\": " << shards
       << ", \"records\": " << records << ", \"events\": " << events
       << ", \"setup_s\": " << setup_s << ", \"job_s\": " << job_s
       << ", \"measure_s\": " << measure_s << ", \"piece_s\": [";
    for (size_t i = 0; i < pieces.size(); ++i)
        os << (i ? ", " : "") << pieces[i];
    os << "], \"measure_pieces\": [" << measure_first << ", "
       << measure_end << "]"
       << ", \"peak_rss_mib\": " << peak_rss_mib
       << ", \"outcome\": " << outcome
       << ", \"outcome_name\": \""
       << (timed ? "sim_ipc" : "sim_coverage_pct") << "\""
       << ", \"gen_checksum\": \"" << config::fingerprintHex(gen_sum)
       << "\", \"compiler\": " << json::quote(PVBENCH_COMPILER)
       << ", \"build_type\": \"" PVBENCH_BUILD_TYPE "\""
       << ", \"errors\": [";
    for (size_t i = 0; i < errors.size(); ++i)
        os << (i ? ", " : "") << json::quote(errors[i]);
    os << "], \"counters\": ";
    printCounts(os, counters);
    os << ", \"spans\": [";
    const std::vector<Span> &spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ", " : "") << "{\"name\": \"" << s.name
           << "\", \"parent\": " << s.parent << ", \"start_us\": "
           << std::fixed << std::setprecision(3) << s.startUs
           << ", \"end_us\": " << s.endUs << std::defaultfloat
           << std::setprecision(10) << ", \"counts\": ";
        printCounts(os, s.counts);
        os << "}";
    }
    os << "]}\n";
    std::cout << os.str();
    return errors.empty() ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::cerr << "usage: pvbench_job <scenario.json> <seed> "
                     "<traced: 0|1>\n";
        return 2;
    }
    char *end = nullptr;
    const uint64_t seed = std::strtoull(argv[2], &end, 10);
    const std::string traced = argv[3];
    if (end == argv[2] || *end != '\0' ||
        (traced != "0" && traced != "1")) {
        std::cerr << "pvbench_job: bad seed or traced flag\n";
        return 2;
    }
    try {
        return runJob(argv[1], seed, traced == "1");
    } catch (const std::exception &e) {
        std::cerr << "pvbench_job: " << e.what() << "\n";
        return 1;
    }
}
