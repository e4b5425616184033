/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: common
 * CLI flags, run helpers, and result bundles. Every figure/table
 * binary prints the same rows/series the paper reports; absolute
 * values differ (synthetic workloads, simplified cores) but the
 * shapes are the object of comparison — see EXPERIMENTS.md.
 */

#ifndef PVSIM_BENCH_BENCH_COMMON_HH
#define PVSIM_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "harness/config_presets.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "trace/workload.hh"
#include "util/args.hh"

namespace pvsim {
namespace bench {

/** Flags shared by all benches. */
struct BenchOptions {
    uint64_t warmupRefs = 300'000;  ///< per core, functional runs
    uint64_t measureRefs = 600'000; ///< per core, functional runs
    uint64_t warmupRecords = 60'000;  ///< per core, timing runs
    uint64_t measureRecords = 180'000; ///< per core, timing runs
    unsigned batches = 2; ///< matched-pair batches (timing)
    std::vector<std::string> workloads;
    bool csv = false;
    bool verbose = false;

    static BenchOptions
    parse(int argc, char **argv)
    {
        Args args(argc, argv);
        BenchOptions o;
        o.warmupRefs = args.getUint("warmup", o.warmupRefs);
        o.measureRefs = args.getUint("refs", o.measureRefs);
        o.warmupRecords =
            args.getUint("warmup-records", o.warmupRecords);
        o.measureRecords =
            args.getUint("measure-records", o.measureRecords);
        o.batches = unsigned(args.getUint("batches", o.batches));
        o.workloads = args.getList("workloads", paperWorkloads());
        o.csv = args.getBool("csv", false);
        o.verbose = args.getBool("verbose", false);
        return o;
    }
};

// The standard prefetcher configurations (baselineConfig, smsConfig,
// smsInfiniteConfig, pvConfig) and FunctionalResult moved to
// harness/config_presets.hh so the scenario loader and the examples
// share the exact builders the benches measure. The unqualified names
// keep resolving here via the enclosing pvsim namespace.

/** Build, warm up, measure one functional configuration. */
inline FunctionalResult
runFunctional(SystemConfig cfg, const BenchOptions &opt)
{
    return runFunctionalMeasured(std::move(cfg), opt.warmupRefs,
                                 opt.measureRefs);
}

/** Print in the requested format. */
inline void
emit(const TextTable &t, const BenchOptions &opt)
{
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    std::cout << "\n";
}

// ---- Host-cost reporting (sweep drivers) ------------------------------
//
// Every timing sweep row carries its measure-phase wall-clock and
// record count; the drivers print the resulting simulator throughput
// so a perf regression in the simulator itself (not the simulated
// machine) is visible in the recorded artifacts.

/** Wall-clock cell: "12.34s". */
inline std::string
fmtWall(double seconds)
{
    return fmtDouble(seconds, 2) + "s";
}

/** Throughput cell: "123.4krec/s" (measured records per second). */
inline std::string
fmtRecordsPerSec(double rps)
{
    return fmtDouble(rps / 1e3, 1) + "krec/s";
}

/** One stdout line summarizing a timing run's host cost. */
inline void
printHostCost(const std::string &label, const TimedRun &r)
{
    std::cout << label << ": wall " << fmtWall(r.wallSeconds) << ", "
              << r.records << " records ("
              << fmtRecordsPerSec(r.recordsPerSec()) << "), "
              << r.eventsExecuted << " events\n";
}

} // namespace bench
} // namespace pvsim

#endif // PVSIM_BENCH_BENCH_COMMON_HH
