#include "config/scenario.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "harness/config_presets.hh"
#include "harness/paper.hh"

namespace pvsim {

using json::ConfigError;

const std::vector<std::string> &
Scenario::kinds()
{
    static const std::vector<std::string> k = {
        "timed", "functional", "fig9", "qos", "qos_hetero", "paper",
    };
    return k;
}

Scenario
parseScenario(const std::string &text, const std::string &label)
{
    return config::parseConfig<Scenario>(text, label);
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError(path + ": cannot open scenario file");
    std::ostringstream buf;
    buf << in.rdbuf();
    Scenario s = parseScenario(buf.str(), path);
    validateScenario(s);
    return s;
}

std::string
dumpScenario(const Scenario &s)
{
    return config::dumpConfig(s);
}

uint64_t
scenarioFingerprint(const Scenario &s)
{
    return config::fingerprint(s);
}

void
validateScenario(const Scenario &s)
{
    if (s.name.empty())
        throw ConfigError("scenario has no \"name\"");
    const auto &kinds = Scenario::kinds();
    if (std::find(kinds.begin(), kinds.end(), s.kind) == kinds.end()) {
        std::string known;
        for (const std::string &k : kinds)
            known += (known.empty() ? "" : ", ") + k;
        throw ConfigError(s.name + ": unknown kind \"" + s.kind +
                          "\" (one of: " + known + ")");
    }
    // A non-default value the kind never reads would be dropped
    // silently: the run would not be the one the file describes.
    // Neither would a machine field the sweep overwrites.
    const Scenario d;
    const bool functional = s.kind == "functional";
    const bool paper = s.kind == "paper";
    const bool qos = s.kind == "qos" || s.kind == "qos_hetero";
    const bool sweep = s.kind == "fig9" || qos;
    const bool records = !functional; // every kind that runs timing
    const bool refs = functional || paper;
    // The kinds that compare configs on matched seed batches; `timed`
    // runs one.
    const bool batched = sweep || paper;
    auto differs = [](const auto &a, const auto &b) {
        return config::dumpConfig(a) != config::dumpConfig(b);
    };
    auto reject_if = [&](bool set, const std::string &path,
                         const char *why = "never reads it") {
        if (set)
            throw ConfigError(s.name + ": " + path + " is set, but kind \"" +
                              s.kind + "\" " + why);
    };
    reject_if(!records && s.warmupRecords != d.warmupRecords,
              "warmup_records");
    reject_if(!records && s.measureRecords != d.measureRecords,
              "measure_records");
    reject_if(!refs && s.warmupRefs != d.warmupRefs, "warmup_refs");
    reject_if(!refs && s.measureRefs != d.measureRefs, "measure_refs");
    reject_if(!batched && s.batches != d.batches, "batches");
    reject_if(paper && differs(s.system, d.system), "system");
    reject_if(s.kind != "fig9" && differs(s.fig9, d.fig9), "fig9");
    reject_if(!qos && differs(s.qos, d.qos), "qos");
    reject_if(s.kind == "qos_hetero" && !s.qos.settings.empty(),
              "qos.settings");
    reject_if(!paper && differs(s.paper, d.paper), "paper");
    if (sweep) {
        const std::string swept = sweptFieldSet(s.system, qos);
        reject_if(!swept.empty(), swept, "sets it itself");
    }
    if (records && s.measureRecords == 0)
        throw ConfigError(s.name + ": measure_records must be > 0");
    if (refs && s.measureRefs == 0)
        throw ConfigError(s.name + ": measure_refs must be > 0");
    if (batched && s.batches == 0)
        throw ConfigError(s.name + ": batches must be >= 1");

    // Each entry of a list names its rows: one listed twice would
    // run twice and repeat their keys.
    auto check_names = [&](const std::vector<std::string> &names,
                           const std::string &path, auto known) {
        for (size_t i = 0; i < names.size(); ++i) {
            const std::string at = s.name + ": " + path + "[" +
                                   std::to_string(i) + "]: \"" +
                                   names[i] + "\" is ";
            if (!known(names[i]))
                throw ConfigError(at + "unknown");
            if (std::count(names.begin(), names.begin() + i, names[i]))
                throw ConfigError(at + "listed twice");
        }
    };
    auto parsed = [](const std::string &) { return true; };
    if (s.kind == "fig9") {
        std::vector<std::string> mixes;
        for (const WorkloadMix &mix : s.fig9.mixes)
            mixes.push_back(mix.name);
        check_names(mixes, "fig9.mixes", parsed);
        const std::vector<double> &v = s.fig9.edgeStabilities;
        for (size_t i = 0; i < v.size(); ++i) {
            // kFig9MixStability (-1) = "the mix's own stability".
            if (v[i] != kFig9MixStability && !(v[i] >= 0.0 && v[i] <= 1.0))
                throw ConfigError(
                    s.name + ": fig9.edge_stabilities[" +
                    std::to_string(i) +
                    "] must be in [0, 1] or -1 (mix default)");
        }
        // A row is keyed by its mix and the stability its machines
        // run, which two different entries can share.
        for (const WorkloadMix &mix :
             s.fig9.mixes.empty() ? presetMixes() : s.fig9.mixes) {
            std::vector<std::string> runs;
            for (double x : v)
                runs.push_back(mix.name + " at " +
                               json::formatReal(fig9Stability(mix, x)));
            check_names(runs, "fig9.edge_stabilities", parsed);
        }
    }
    if (qos) {
        std::vector<std::string> labels;
        for (const QosSetting &setting : s.qos.settings)
            labels.push_back(setting.label);
        check_names(labels, "qos.settings", parsed);
    }
    if (paper) {
        const std::vector<std::string> &figs = paperFigures();
        check_names(s.paper.figures, "paper.figures",
                    [&](const std::string &f) {
                        return std::find(figs.begin(), figs.end(), f) !=
                               figs.end();
                    });
        check_names(s.paper.workloads, "paper.workloads", isWorkloadPreset);
    }
    // The cluster matrix lists a workload and a contract per core
    // while it plans, before any machine below is checked.
    const int cores = s.system.numCores;
    if (s.kind == "qos_hetero" &&
        (cores < 4 || cores > kMaxCores || cores % 4 != 0))
        throw ConfigError(s.name +
                          ": system.num_cores must be a multiple of 4 "
                          "in [4, " +
                          std::to_string(kMaxCores) +
                          "] for the heterogeneous cluster matrix");

    // The sweeps measure what the BTB's answers are worth in IPC, and
    // at penalty 0 a missed or late one costs nothing.
    if (sweep && s.system.btbMispredictPenalty == 0)
        throw ConfigError(s.name + ": system.btb_mispredict_penalty is 0, "
                                   "but kind \"" +
                          s.kind +
                          "\" needs a penalty: at 0 a missed or late "
                          "BTB prediction costs nothing");

    // Every machine the kind builds must be one a System can run:
    // an abort mid-batch would lose the other scenarios' results.
    for (const auto &[label, cfg] : scenarioMachines(s)) {
        const std::string problem = systemConfigProblem(cfg);
        if (!problem.empty())
            throw ConfigError(s.name + ": " +
                              (label.empty() ? "" : label + ": ") +
                              "system." + problem);
    }
}

namespace {

/** One pass of s's figure over r. */
void
pass(Runs &r, const Scenario &s)
{
    if (s.kind == "timed")
        timedRows(r, s.system);
    else if (s.kind == "functional")
        functionalRows(r, s.system);
    else if (s.kind == "fig9")
        fig9Rows(r, s.system, s.fig9);
    else if (s.kind == "qos")
        qosRows(r, s.system, s.qos);
    else if (s.kind == "qos_hetero")
        qosHeteroRows(r, s.system, s.qos);
    else if (s.kind == "paper")
        paperRows(r, s.paper);
    else
        throw ConfigError(s.name + ": unknown kind \"" + s.kind + "\"");
}

} // namespace

std::vector<std::pair<std::string, SystemConfig>>
scenarioMachines(const Scenario &s)
{
    Runs r(s);
    pass(r, s);
    // The timed and functional kinds run the `system` section itself.
    const bool own = s.kind == "timed" || s.kind == "functional";
    std::vector<std::pair<std::string, SystemConfig>> machines;
    for (const SystemConfig &cfg : r.machines())
        machines.emplace_back(own ? ""
                                  : s.kind + " machine (" +
                                        cfg.workloadFor(0) + ", " +
                                        cfg.label() + ")",
                              cfg);
    return machines;
}

std::vector<Row>
scenarioRows(const Scenario &s)
{
    Runs r(s);
    pass(r, s);
    r.run();
    pass(r, s);
    return std::move(r.rows);
}

int
scenarioCores(const Scenario &s)
{
    // The paper's figures run the Table 1 CMP.
    return s.kind == "paper" ? SystemConfig().numCores : s.system.numCores;
}

std::vector<std::string>
listScenarioFiles(const std::string &path)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    if (fs::is_directory(path)) {
        for (const auto &e : fs::directory_iterator(path)) {
            if (!e.is_regular_file())
                continue;
            const fs::path &p = e.path();
            if (p.extension() == ".json" &&
                p.filename() != "MANIFEST.json")
                files.push_back(p.string());
        }
        std::sort(files.begin(), files.end());
        if (files.empty())
            throw ConfigError(path +
                              ": no scenario *.json files found");
    } else if (fs::is_regular_file(path)) {
        files.push_back(path);
    } else {
        throw ConfigError(path + ": no such file or directory");
    }
    return files;
}

namespace {

/** The artifact's one row schema: text fields, then values printed
 *  at round-trip precision, so byte counts print as integers and the
 *  ledger reads the values the runs computed. */
std::string
rowJson(const Row &r)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{";
    const char *sep = "";
    for (const auto &[field, text] : r.text) {
        os << sep << json::quote(field) << ": " << json::quote(text);
        sep = ", ";
    }
    for (const auto &[field, v] : r.values) {
        os << sep << json::quote(field) << ": " << v;
        sep = ", ";
    }
    os << "}";
    return os.str();
}

} // namespace

std::string
runScenarioJson(const Scenario &s, const std::string &file_label)
{
    const std::vector<Row> rows = scenarioRows(s);
    std::ostringstream os;
    os << "{\n      \"name\": " << json::quote(s.name)
       << ",\n      \"kind\": " << json::quote(s.kind)
       << ",\n      \"file\": " << json::quote(file_label)
       << ",\n      \"fingerprint\": "
       << json::quote(
              config::fingerprintHex(scenarioFingerprint(s)))
       << ",\n      \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i)
        os << "        " << rowJson(rows[i])
           << (i + 1 < rows.size() ? "," : "") << "\n";
    os << "      ]\n    }";
    return os.str();
}

} // namespace pvsim
