/**
 * @file
 * Tests for the planner every scenario kind runs on (harness/paper.hh):
 * a run that several figures share is queued once, its rows equal
 * what the harness entry points compute for the same machines, and
 * every kind yields uniquely keyed rows that do not depend on the
 * worker count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "config/scenario.hh"
#include "harness/config_presets.hh"

using namespace pvsim;

namespace {

const RunBudget kTiny{2'000, 6'000, 500, 1'500, 2};

/** A row's key, as check_bench.py forms it: its text fields, and a
 *  fig9 row's edge stability. */
std::string
key(const Row &r)
{
    std::string k;
    for (const auto &[name, text] : r.text)
        k += (k.empty() ? "" : "/") + text;
    const double stability = r.value("edge_stability");
    return std::isnan(stability) ? k
                                 : k + "@" + std::to_string(stability);
}

/** Field `field` of the row keyed `row_key` (NaN if absent). */
double
value(const std::vector<Row> &rows, const std::string &row_key,
      const std::string &field)
{
    for (const Row &r : rows)
        if (key(r) == row_key && !std::isnan(r.value(field)))
            return r.value(field);
    ADD_FAILURE() << "no " << row_key << " " << field;
    return std::nan("");
}

/** A paper scenario of opt at the kTiny budget. */
Scenario
paperScenario(const PaperOptions &opt)
{
    Scenario s;
    s.name = "paper";
    s.kind = "paper";
    s.paper = opt;
    s.warmupRefs = kTiny.warmupRefs;
    s.measureRefs = kTiny.measureRefs;
    s.warmupRecords = kTiny.warmupRecords;
    s.measureRecords = kTiny.measureRecords;
    s.batches = kTiny.batches;
    return s;
}

/** Host fields: wall time and its rate, and the worker count. */
bool
isHost(const std::string &field)
{
    return field == "wall_seconds" || field == "records_per_sec" ||
           field == "jobs_effective";
}

} // namespace

TEST(PaperRunner, RowsEqualTheHarnessEntryPoints)
{
    PaperOptions opt;
    opt.figures = {"fig4", "fig6", "fig9"};
    opt.workloads = {"qry1"};
    const Scenario s = paperScenario(opt);
    // One flat job list: Figure 4's five functional runs, two more
    // for Figure 6 (its SMS-1K-11a is Figure 4's), and two batches
    // each of Figure 9's baseline and four configs.
    EXPECT_EQ(scenarioMachines(s).size(), 5u + 2u + 10u);
    const std::vector<Row> rows = scenarioRows(s);
    auto functional = [](const SystemConfig &cfg) {
        return runFunctionalMeasured(cfg, kTiny.warmupRefs,
                                     kTiny.measureRefs);
    };
    EXPECT_EQ(value(rows, "fig4/qry1/16-11a", "covered_pct"),
              functional(smsConfig("qry1", {16, 11}))
                  .coverage.coveredPct());
    EXPECT_EQ(value(rows, "fig6/qry1/PV-8", "l2_request_increase_pct"),
              pctIncrease(functional(smsConfig("qry1", {1024, 11}))
                              .traffic.l2Requests,
                          functional(pvConfig("qry1", 8))
                              .traffic.l2Requests));
    // Batch b runs both sides at seed offset b.
    std::vector<double> base, pv;
    for (unsigned b = 0; b < kTiny.batches; ++b) {
        SystemConfig x = baselineConfig("qry1"), y = pvConfig("qry1", 8);
        x.seedOffset = y.seedOffset = b;
        base.push_back(
            timedIpc(x, kTiny.warmupRecords, kTiny.measureRecords));
        pv.push_back(timedIpc(y, kTiny.warmupRecords, kTiny.measureRecords));
    }
    const SpeedupResult sp = speedupFromIpcs(base, pv);
    EXPECT_EQ(value(rows, "fig9/qry1/SMS-PV8", "speedup_pct"), sp.meanPct);
    EXPECT_EQ(value(rows, "fig9/qry1/SMS-PV8", "ci_pct"), sp.ciPct);
}

TEST(PaperRunner, EveryFigureYieldsKeyedRowsForAnyWorkerCount)
{
    // One tiny scenario of each kind, and the rows each must yield.
    const std::pair<const char *, size_t> cases[] = {
        {R"({"name": "t", "kind": "timed", "warmup_records": 500,
             "measure_records": 1500, "system": {"num_cores": 2,
             "btb_mispredict_penalty": 8, "btb": {"mode": "virtualized",
             "num_sets": 128}}})", 1},
        {R"({"name": "f", "kind": "functional", "warmup_refs": 2000,
             "measure_refs": 6000, "system": {"num_cores": 2,
             "prefetch": "sms_virtualized"}})", 1},
        {R"({"name": "b", "kind": "fig9", "warmup_records": 500,
             "measure_records": 1500, "batches": 2, "system":
             {"num_cores": 2, "btb_mispredict_penalty": 8, "btb":
             {"num_sets": 128}}, "fig9": {"mixes": ["web", "mixed"],
             "edge_stabilities": [-1, 0.5]}})", 4},
        {R"({"name": "q", "kind": "qos", "warmup_records": 500,
             "measure_records": 1500, "batches": 2, "system":
             {"num_cores": 2, "btb_mispredict_penalty": 8, "btb":
             {"num_sets": 128}, "pv_cache_entries": 16}, "qos":
             {"settings": ["equal", "4:1", "equal+floor"]}})", 3},
        {R"({"name": "h", "kind": "qos_hetero", "warmup_records": 500,
             "measure_records": 1500, "batches": 2, "system":
             {"num_cores": 4, "btb_mispredict_penalty": 8, "btb":
             {"num_sets": 128}, "pv_cache_entries": 16}})", 6},
        {R"({"name": "p", "kind": "paper", "warmup_refs": 2000,
             "measure_refs": 6000, "warmup_records": 500,
             "measure_records": 1500, "paper": {"workloads":
             ["zeus"]}})", 0},
    };
    for (const auto &[text, want] : cases) {
        const Scenario s = parseScenario(text);
        SCOPED_TRACE(s.kind);
        validateScenario(s);
        setenv("PVSIM_JOBS", "1", 1);
        const std::vector<Row> rows = scenarioRows(s);
        setenv("PVSIM_JOBS", "4", 1);
        const std::vector<Row> threaded = scenarioRows(s);
        unsetenv("PVSIM_JOBS");

        if (want) {
            ASSERT_EQ(rows.size(), want);
        }
        ASSERT_EQ(rows.size(), threaded.size());
        std::set<std::string> keys;
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i], &t = threaded[i];
            EXPECT_TRUE(keys.insert(key(r)).second) << key(r);
            EXPECT_EQ(r.text, t.text) << key(r);
            ASSERT_EQ(r.values.size(), t.values.size()) << key(r);
            for (size_t v = 0; v < r.values.size(); ++v) {
                EXPECT_EQ(r.values[v].first, t.values[v].first);
                if (!isHost(r.values[v].first)) {
                    EXPECT_EQ(r.values[v].second, t.values[v].second)
                        << key(r) << " " << r.values[v].first;
                }
            }
        }
        if (s.kind == "qos_hetero") {
            // The per-core contracts took effect, on the same seeds:
            // the 4:1 cluster's BTB waits less than at equal weights.
            EXPECT_GT(rows[1].value("avail_improvement_pct"), 0.0);
            EXPECT_EQ(key(rows[4]), "reference");
            EXPECT_EQ(key(rows[5]), "protected");
        }
        if (s.kind == "paper") {
            std::set<std::string> figures;
            for (const Row &r : rows)
                figures.insert(r.text.at(0).second);
            EXPECT_EQ(figures.size(), paperFigures().size());
            // Section 4.6: 842 B against the paper's 889 B.
            EXPECT_EQ(value(rows, "sec46/all/SMS-PV8", "total_bytes"),
                      841.5);
        }
    }
}
