/**
 * @file
 * The paper's standard prefetcher configurations and the functional
 * warmup -> reset -> measure protocol, at library level. The paper
 * runner (harness/paper.hh, the `paper` scenario kind), the
 * examples and the tests share this single set of builders, so "the
 * baseline machine" is defined exactly once.
 */

#ifndef PVSIM_HARNESS_CONFIG_PRESETS_HH
#define PVSIM_HARNESS_CONFIG_PRESETS_HH

#include <string>

#include "harness/metrics.hh"
#include "harness/system_config.hh"

namespace pvsim {

/** Table 1 machine, no prefetcher, one preset on every core. */
SystemConfig baselineConfig(const std::string &workload);

/** Baseline + dedicated-SRAM SMS PHT of the given geometry. */
SystemConfig smsConfig(const std::string &workload,
                       PhtGeometry geom);

/** Baseline + unbounded SMS PHT (the paper's potential ceiling). */
SystemConfig smsInfiniteConfig(const std::string &workload);

/** Baseline + the paper's virtualized 1K-11a PHT. */
SystemConfig pvConfig(const std::string &workload,
                      unsigned pvcache_entries);

/** Everything a functional run produces. */
struct FunctionalResult {
    CoverageMetrics coverage;
    TrafficMetrics traffic;
    double pvL2FillRate = 0.0; ///< PVProxy requests served by L2
};

/** Build, warm up, reset stats, measure one functional config. */
FunctionalResult runFunctionalMeasured(SystemConfig cfg,
                                       uint64_t warmup_refs,
                                       uint64_t measure_refs);

} // namespace pvsim

#endif // PVSIM_HARNESS_CONFIG_PRESETS_HH
