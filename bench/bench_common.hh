/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: common
 * CLI flags, run helpers, and result bundles. Every figure/table
 * binary prints the same rows/series the paper reports; absolute
 * values differ (synthetic workloads, simplified cores) but the
 * shapes are the object of comparison.
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
        args.rejectUnread();
        return o;
    }
};

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

} // namespace bench
} // namespace pvsim

#endif // PVSIM_BENCH_BENCH_COMMON_HH
