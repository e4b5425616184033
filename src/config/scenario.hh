/**
 * @file
 * Declarative scenarios: a JSON file under scenarios/ is one
 * experiment — a plain timed or functional run of a SystemConfig,
 * a whole fig9/qos/qos_hetero sweep, or the paper's own figures and
 * tables — expressed as data. Every kind is a figure function on
 * the one planner (harness/paper.hh: Runs), whose plan pass also
 * lists the machines validation checks. The runner is the only
 * producer of experiment artifacts: every BENCH_*.json is a `pvsim
 * run` of the scenarios under scenarios/bench/, in the one row
 * schema runScenarioJson emits.
 *
 * A scenario describes its machine once, in `system`, and its run
 * lengths once, in the top-level budget fields. The sweep kinds
 * build each machine from `system`, setting only what they vary;
 * their sections hold just the sweep axes.
 *
 * Every field of every nested config is reflected
 * (config/fields.hh): absent keys default, unknown keys are
 * rejected with a full path, and the canonical serialization yields
 * a stable fingerprint() recorded in scenarios/MANIFEST.json — a
 * scenario edit without a manifest refresh fails scenario_test.
 */

#ifndef PVSIM_CONFIG_SCENARIO_HH
#define PVSIM_CONFIG_SCENARIO_HH

#include <string>
#include <utility>
#include <vector>

#include "config/fields.hh"

namespace pvsim {

/**
 * One scenario file's contents. The inherited RunBudget is every
 * run's lengths and batch count: the timing kinds read the records,
 * the matched-pair kinds (fig9, qos, qos_hetero, paper) `batches`,
 * the functional and paper kinds the refs. `kind` decides the
 * simulation mode. validateScenario rejects a non-default value in
 * any field or section the kind never reads.
 */
struct Scenario : RunBudget {
    std::string name;
    /** "timed" | "functional" | "fig9" | "qos" | "qos_hetero" | "paper" */
    std::string kind = "timed";
    /** Free-form description, carried into the result artifact. */
    std::string notes;
    /** The machine of every kind but `paper`. */
    SystemConfig system;

    // ---- sweep axes ------------------------------------------------
    Fig9Options fig9;
    QosOptions qos; ///< qos and qos_hetero kinds
    PaperOptions paper;

    /** Valid scenario kinds, in documentation order. */
    static const std::vector<std::string> &kinds();
};

template <class V>
void
reflectFields(Scenario &s, V &v)
{
    v.field("name", s.name);
    v.field("kind", s.kind);
    v.field("notes", s.notes);
    v.field("warmup_records", s.warmupRecords);
    v.field("measure_records", s.measureRecords);
    v.field("warmup_refs", s.warmupRefs);
    v.field("measure_refs", s.measureRefs);
    v.field("batches", s.batches);
    v.field("system", s.system);
    v.field("fig9", s.fig9);
    v.field("qos", s.qos);
    v.field("paper", s.paper);
}

/** Strict parse (throws json::ConfigError; `label` prefixes error
 *  paths — pass the file name). */
Scenario parseScenario(const std::string &text,
                       const std::string &label = "$");

/** Read + parse + validate one scenario file. */
Scenario loadScenarioFile(const std::string &path);

/** Canonical byte-stable serialization. */
std::string dumpScenario(const Scenario &s);

/** Stable fingerprint of the canonical form. */
uint64_t scenarioFingerprint(const Scenario &s);

/**
 * Structural validation beyond field types: known kind, nonempty
 * name, no non-default value in a field or section the kind never
 * reads, no `system` field a sweep sets itself, nonzero budgets for
 * the kind that runs, the qos_hetero cores%4 precondition, known
 * paper figures and workloads, no sweep entry listed twice, and
 * systemConfigProblem() on every machine of scenarioMachines().
 * Throws json::ConfigError naming the dotted path.
 */
void validateScenario(const Scenario &s);

/**
 * Every machine the scenario's runs build (its plan pass), each with
 * the label validation names it by: "" for the `system` section of
 * the timed and functional kinds, else "<kind> machine (<first
 * workload>, <config label>)". The paper kind's figure and workload
 * names must be known; validateScenario checks them before it
 * checks these machines.
 */
std::vector<std::pair<std::string, SystemConfig>>
scenarioMachines(const Scenario &s);

/**
 * The simulated-core count the scenario instantiates — the knob CI
 * smoke subsets filter on (`pvsim run --max-cores`): system.numCores,
 * or the Table 1 CMP's for the paper kind.
 */
int scenarioCores(const Scenario &s);

/**
 * Expand a path into scenario files: a .json file yields itself; a
 * directory yields its *.json entries sorted by name, minus
 * MANIFEST.json. Throws json::ConfigError when nothing matches.
 */
std::vector<std::string> listScenarioFiles(const std::string &path);

/** Execute one scenario: its rows, bit-identical for any
 *  PVSIM_JOBS (host fields aside). */
std::vector<Row> scenarioRows(const Scenario &s);

/**
 * Execute one scenario and return its complete result object
 * (pretty JSON, no trailing newline): name, kind, file, fingerprint
 * and a "rows" array. Each row prints its text fields, then its
 * values at round-trip precision. Rows are keyed by figure,
 * workload and config (paper), mix and edge stability (fig9),
 * setting (qos), cluster or run (qos_hetero: four clusters, then
 * the reference and protected runs).
 */
std::string runScenarioJson(const Scenario &s,
                            const std::string &file_label);

} // namespace pvsim

#endif // PVSIM_CONFIG_SCENARIO_HH
