/**
 * @file
 * The paper's Figures 4-11, Tables 1-3 and Section 4.6 as rows (the
 * `paper` scenario kind). Their runs, built by the config_presets
 * builders, go on one flat PVSIM_JOBS job list (forEachBatch), each
 * once; the rows are bit-identical for any worker count.
 */

#ifndef PVSIM_HARNESS_PAPER_HH
#define PVSIM_HARNESS_PAPER_HH

#include <string>
#include <utility>
#include <vector>

#include "harness/system_config.hh"

namespace pvsim {

/** What a `paper` scenario runs. */
struct PaperOptions {
    /** Names from paperFigures(); empty means all. */
    std::vector<std::string> figures;
    /** Presets; empty means paperWorkloads(), and for Figure 5 its
     *  three representatives (Apache, Oracle, Qry17). */
    std::vector<std::string> workloads;
    /** Matched-pair batches of Figures 9 and 11. */
    unsigned batches = 2;
};

/** Per-core run lengths: the functional figures read the refs
 *  (Table 2 half of measureRefs), Figures 9 and 11 the records. */
struct PaperBudget {
    uint64_t warmupRefs = 0, measureRefs = 0;
    uint64_t warmupRecords = 0, measureRecords = 0;
};

/** One printed line of a figure or table. */
struct PaperRow {
    std::string figure;   ///< "fig4" ... "sec46"
    std::string workload; ///< a preset, "average", or "all"
    std::string config;   ///< e.g. "1K-11a", "SMS-PV8", "2MB"
    std::vector<std::pair<std::string, std::string>> text;
    std::vector<std::pair<std::string, double>> values;
};

/** "fig4" ... "fig11", "table1" ... "table3", "sec46". */
const std::vector<std::string> &paperFigures();

/** Every machine paperRows() simulates for opt, each once. */
std::vector<SystemConfig> paperMachines(const PaperOptions &opt);

/** Run opt's figures; their rows, figure by figure. */
std::vector<PaperRow> paperRows(const PaperOptions &opt,
                                const PaperBudget &budget);

} // namespace pvsim

#endif // PVSIM_HARNESS_PAPER_HH
