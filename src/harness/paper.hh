/**
 * @file
 * The planner every scenario kind runs on (Runs), its one row type,
 * and the figure functions that fill it: the paper's Figures 4-11,
 * Tables 1-3 and Section 4.6 (the `paper` kind), and the `timed`,
 * `functional`, `fig9`, `qos` and `qos_hetero` kinds. Their runs go
 * on one flat PVSIM_JOBS job list (forEachBatch), each once; the
 * rows are bit-identical for any worker count.
 */

#ifndef PVSIM_HARNESS_PAPER_HH
#define PVSIM_HARNESS_PAPER_HH

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/config_presets.hh"
#include "harness/metrics.hh"

namespace pvsim {

/** What a `paper` scenario runs. */
struct PaperOptions {
    /** Names from paperFigures(); empty means all. */
    std::vector<std::string> figures;
    /** Presets; empty means paperWorkloads(), and for Figure 5 its
     *  three representatives (Apache, Oracle, Qry17). */
    std::vector<std::string> workloads;
};

/** What every run of one scenario gets: per-core run lengths (the
 *  functional runs read the refs, Table 2 half of measureRefs, the
 *  timed runs the records) and each timed config's batches. A
 *  Scenario's top-level fields are its RunBudget. */
struct RunBudget {
    uint64_t warmupRefs = 300'000, measureRefs = 600'000;
    uint64_t warmupRecords = 20'000, measureRecords = 60'000;
    unsigned batches = 1;
};

using Text = std::vector<std::pair<std::string, std::string>>;
using Values = std::vector<std::pair<std::string, double>>;

/** One printed line of a result: its text fields, then its values,
 *  each in the order its figure wrote them. A paper row's text
 *  starts with figure, workload and config. */
struct Row {
    Text text;
    Values values;

    /** The value named `field`; NaN when the row has none. */
    double
    value(const std::string &field) const
    {
        for (const auto &[name, v] : values)
            if (name == field)
                return v;
        return std::nan("");
    }
};

/** One timed config over its batches (batch b adds b to the seed
 *  offset), every batch's counters added. */
struct TimedBatches {
    std::vector<double> ipcs;    ///< each batch's IPC
    TimedRun sum;                ///< every batch's TimedRun added
    std::vector<TimedRun> cores; ///< each core's counters, added
};

/**
 * The runs a scenario's figures read. The figure code runs twice:
 * the first pass queues the runs it asks for and reads zeros (every
 * figure guards its divisions), then run() executes all of them as
 * one flat job list, and the second pass reads the results and
 * keeps its rows. Runs of one kind, canonical config and contracts
 * are queued once.
 */
class Runs
{
  public:
    explicit Runs(const RunBudget &budget) : budget_(budget) {}

    /** Functional: warmup, reset stats, measure. */
    const FunctionalResult &
    functional(const SystemConfig &cfg)
    {
        return get(Job::Measured, cfg, {}).functional;
    }

    /** Functional from cold for measureRefs / 2: l1d_mpki, l1i_mpki
     *  and store_pct. */
    const Values &
    profile(const SystemConfig &cfg)
    {
        return get(Job::Profiled, cfg, {}).profile;
    }

    /** Timing: warmup, reset stats, measure, per batch. */
    TimedBatches timed(const SystemConfig &cfg,
                       const TenantContracts &contracts = {});

    void
    row(Text text, Values values)
    {
        if (!planning_)
            rows.push_back({std::move(text), std::move(values)});
    }

    /** Execute every queued run; the next pass reads the results. */
    void run();

    /** Every queued machine, in queue order. */
    std::vector<SystemConfig> machines() const;

    /** Worker threads run() spreads the queued runs over. */
    unsigned
    workers() const
    {
        return effectiveHarnessJobs(unsigned(jobs_.size()));
    }

    std::vector<Row> rows; ///< what the second pass wrote

  private:
    /** One simulation a figure reads, and its result. */
    struct Job {
        enum Kind {
            Measured, ///< functional: warmup, reset stats, measure
            Timed,    ///< timing: warmup, reset stats, measure
            Profiled, ///< functional: measureRefs / 2 from cold
        } kind;
        SystemConfig cfg;
        TenantContracts contracts;
        FunctionalResult functional;
        TimedRun timed;
        std::vector<TimedRun> cores; ///< timed: each core's counters
        Values profile;
    };

    const Job &get(Job::Kind kind, const SystemConfig &cfg,
                   const TenantContracts &contracts);
    void execute(Job &job) const;

    RunBudget budget_;
    bool planning_ = true;
    std::vector<Job> jobs_;
    std::map<std::string, size_t> index_;
};

/** "fig4" ... "fig11", "table1" ... "table3", "sec46". */
const std::vector<std::string> &paperFigures();

/** The figure functions, one per scenario kind: each asks r for its
 *  runs and writes its rows. */
void paperRows(Runs &r, const PaperOptions &opt);
void timedRows(Runs &r, const SystemConfig &cfg);
void functionalRows(Runs &r, const SystemConfig &cfg);

/** Dedicated vs virtualized BTB matched pairs on fig9Config(system,
 *  ...), one row per (edge stability, mix). */
void fig9Rows(Runs &r, const SystemConfig &system, const Fig9Options &opt);

/** The QoS contract sweep on qosConfig(system, ...), one row per
 *  setting; deltas are against the first setting on the same seeds. */
void qosRows(Runs &r, const SystemConfig &system, const QosOptions &opt);

/**
 * The heterogeneous per-cluster tenant matrix: the cores split into
 * four equal cluster groups, each running its own preset mix (web /
 * oltp / dss / mixed) and, in the protected run, its own contract
 * (equal, 4:1, equal+floor, 8:1) installed per core. The reference
 * run keeps every group on the equal contract with the same seeds.
 * One row per cluster, then a `run` row for each run. Needs
 * system.numCores a multiple of 4 in [4, kMaxCores]; opt.settings is
 * ignored.
 */
void qosHeteroRows(Runs &r, const SystemConfig &system,
                   const QosOptions &opt);

} // namespace pvsim

#endif // PVSIM_HARNESS_PAPER_HH
