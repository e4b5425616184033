/**
 * @file
 * Tests for the paper runner (harness/paper.hh): a run that several
 * figures share is queued once, its rows equal what the harness entry
 * points compute for the same machines, and every figure yields
 * uniquely keyed rows that do not depend on the worker count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "harness/config_presets.hh"
#include "harness/paper.hh"

using namespace pvsim;

namespace {

const PaperBudget kTiny{2'000, 6'000, 500, 1'500};

/** Field `field` of row figure/workload/config (NaN if absent). */
double
value(const std::vector<PaperRow> &rows, const std::string &key,
      const std::string &field)
{
    for (const PaperRow &r : rows)
        for (const auto &[name, v] : r.values)
            if (r.figure + "/" + r.workload + "/" + r.config == key &&
                name == field)
                return v;
    ADD_FAILURE() << "no " << key << " " << field;
    return std::nan("");
}

} // namespace

TEST(PaperRunner, RowsEqualTheHarnessEntryPoints)
{
    PaperOptions opt;
    opt.figures = {"fig4", "fig6", "fig9"};
    opt.workloads = {"qry1"};
    // One flat job list: Figure 4's five functional runs, two more
    // for Figure 6 (its SMS-1K-11a is Figure 4's), and two batches
    // each of Figure 9's baseline and four configs.
    EXPECT_EQ(paperMachines(opt).size(), 5u + 2u + 10u);
    const std::vector<PaperRow> rows = paperRows(opt, kTiny);
    auto functional = [](const SystemConfig &cfg) {
        return runFunctionalMeasured(cfg, kTiny.warmupRefs,
                                     kTiny.measureRefs);
    };
    EXPECT_EQ(value(rows, "fig4/qry1/16-11a", "covered_pct"),
              functional(smsConfig("qry1", {16, 11})).coverage.coveredPct());
    EXPECT_EQ(value(rows, "fig6/qry1/PV-8", "l2_request_increase_pct"),
              pctIncrease(functional(smsConfig("qry1", {1024, 11}))
                              .traffic.l2Requests,
                          functional(pvConfig("qry1", 8))
                              .traffic.l2Requests));
    SpeedupResult s = matchedPairSpeedup(
        baselineConfig("qry1"), pvConfig("qry1", 8), kTiny.warmupRecords,
        kTiny.measureRecords, opt.batches);
    EXPECT_EQ(value(rows, "fig9/qry1/SMS-PV8", "speedup_pct"), s.meanPct);
    EXPECT_EQ(value(rows, "fig9/qry1/SMS-PV8", "ci_pct"), s.ciPct);
}

TEST(PaperRunner, EveryFigureYieldsKeyedRowsForAnyWorkerCount)
{
    PaperOptions opt;
    opt.workloads = {"zeus"};
    opt.batches = 1;
    setenv("PVSIM_JOBS", "1", 1);
    const std::vector<PaperRow> rows = paperRows(opt, kTiny);
    setenv("PVSIM_JOBS", "4", 1);
    const std::vector<PaperRow> threaded = paperRows(opt, kTiny);
    unsetenv("PVSIM_JOBS");

    ASSERT_EQ(rows.size(), threaded.size());
    std::set<std::string> keys, figures;
    for (size_t i = 0; i < rows.size(); ++i) {
        const PaperRow &r = rows[i];
        const std::string key = r.figure + "/" + r.workload + "/" + r.config;
        EXPECT_TRUE(keys.insert(key).second) << key;
        EXPECT_EQ(r.values, threaded[i].values) << key;
        figures.insert(r.figure);
    }
    EXPECT_EQ(figures.size(), paperFigures().size());
    // Section 4.6: 842 B against the paper's 889 B.
    EXPECT_EQ(value(rows, "sec46/all/SMS-PV8", "total_bytes"), 841.5);
}
