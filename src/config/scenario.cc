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
    // A non-default value in a section the kind never reads would
    // be dropped silently: the run would not be the one the file
    // describes.
    const Scenario d;
    const bool timed = s.kind == "timed";
    const bool functional = s.kind == "functional";
    const bool qos = s.kind == "qos" || s.kind == "qos_hetero";
    const bool paper = s.kind == "paper";
    auto differs = [](const auto &a, const auto &b) {
        return config::dumpConfig(a) != config::dumpConfig(b);
    };
    auto reject_if = [&](bool unread, const std::string &path) {
        if (unread)
            throw ConfigError(s.name + ": " + path +
                              " is set, but kind \"" + s.kind +
                              "\" never reads it");
    };
    reject_if(!timed && !paper && s.warmupRecords != d.warmupRecords,
              "warmup_records");
    reject_if(!timed && !paper && s.measureRecords != d.measureRecords,
              "measure_records");
    reject_if(!functional && !paper && s.warmupRefs != d.warmupRefs,
              "warmup_refs");
    reject_if(!functional && !paper && s.measureRefs != d.measureRefs,
              "measure_refs");
    reject_if(!timed && !functional && differs(s.system, d.system),
              "system");
    reject_if(s.kind != "fig9" && differs(s.fig9, d.fig9), "fig9");
    reject_if(!qos && differs(s.qos, d.qos), "qos");
    reject_if(s.kind == "qos_hetero" && !s.qos.settings.empty(),
              "qos.settings");
    reject_if(!paper && differs(s.paper, d.paper), "paper");
    if ((timed || paper) && s.measureRecords == 0)
        throw ConfigError(s.name + ": measure_records must be > 0");
    if ((functional || paper) && s.measureRefs == 0)
        throw ConfigError(s.name + ": measure_refs must be > 0");

    if (s.kind == "fig9") {
        if (s.fig9.batches == 0)
            throw ConfigError(s.name +
                              ": fig9.batches must be >= 1");
        if (s.fig9.measureRecords == 0)
            throw ConfigError(
                s.name + ": fig9.measure_records must be > 0");
        for (size_t i = 0; i < s.fig9.edgeStabilities.size(); ++i) {
            double v = s.fig9.edgeStabilities[i];
            // kFig9MixStability (-1) = "the mix's own stability".
            if (v != kFig9MixStability && !(v >= 0.0 && v <= 1.0))
                throw ConfigError(
                    s.name + ": fig9.edge_stabilities[" +
                    std::to_string(i) +
                    "] must be in [0, 1] or -1 (mix default)");
        }
    }
    if (qos) {
        if (s.qos.batches == 0)
            throw ConfigError(s.name + ": qos.batches must be >= 1");
        if (s.qos.measureRecords == 0)
            throw ConfigError(s.name +
                              ": qos.measure_records must be > 0");
    }
    if (paper) {
        if (s.paper.batches == 0)
            throw ConfigError(s.name + ": paper.batches must be >= 1");
        auto check_names = [&](const std::vector<std::string> &names,
                               const std::string &field, auto known) {
            for (size_t i = 0; i < names.size(); ++i) {
                const std::string at = s.name + ": paper." + field + "[" +
                                       std::to_string(i) + "]: \"" +
                                       names[i] + "\" is ";
                if (!known(names[i]))
                    throw ConfigError(at + "unknown");
                if (std::count(names.begin(), names.begin() + i, names[i]))
                    throw ConfigError(at + "listed twice");
            }
        };
        const std::vector<std::string> &figs = paperFigures();
        check_names(s.paper.figures, "figures", [&](const std::string &f) {
            return std::find(figs.begin(), figs.end(), f) != figs.end();
        });
        check_names(s.paper.workloads, "workloads", isWorkloadPreset);
    }
    // The cluster matrix lists a workload and a contract per core
    // while it plans, before any machine below is checked.
    if (s.kind == "qos_hetero" &&
        (s.qos.numCores < 4 || s.qos.numCores > kMaxCores ||
         s.qos.numCores % 4 != 0))
        throw ConfigError(s.name + ": qos.cores must be a multiple of 4 "
                                   "in [4, " +
                          std::to_string(kMaxCores) +
                          "] for the heterogeneous cluster matrix");

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

/** What every run of s gets: its kind's budgets and batches. */
RunBudget
budgetOf(const Scenario &s)
{
    if (s.kind == "fig9")
        return {0, 0, s.fig9.warmupRecords, s.fig9.measureRecords,
                s.fig9.batches};
    if (s.kind == "qos" || s.kind == "qos_hetero")
        return {0, 0, s.qos.warmupRecords, s.qos.measureRecords,
                s.qos.batches};
    return {s.warmupRefs, s.measureRefs, s.warmupRecords,
            s.measureRecords, s.kind == "paper" ? s.paper.batches : 1};
}

/** One pass of s's figure over r. */
void
pass(Runs &r, const Scenario &s)
{
    if (s.kind == "timed")
        timedRows(r, s.system);
    else if (s.kind == "functional")
        functionalRows(r, s.system);
    else if (s.kind == "fig9")
        fig9Rows(r, s.fig9);
    else if (s.kind == "qos")
        qosRows(r, s.qos);
    else if (s.kind == "qos_hetero")
        qosHeteroRows(r, s.qos);
    else if (s.kind == "paper")
        paperRows(r, s.paper);
    else
        throw ConfigError(s.name + ": unknown kind \"" + s.kind + "\"");
}

} // namespace

std::vector<std::pair<std::string, SystemConfig>>
scenarioMachines(const Scenario &s)
{
    Runs r(budgetOf(s));
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
    Runs r(budgetOf(s));
    pass(r, s);
    r.run();
    pass(r, s);
    return std::move(r.rows);
}

int
scenarioCores(const Scenario &s)
{
    if (s.kind == "fig9")
        return s.fig9.numCores;
    if (s.kind == "qos" || s.kind == "qos_hetero")
        return s.qos.numCores;
    if (s.kind == "paper")
        return SystemConfig().numCores; // the paper's Table 1 CMP
    return s.system.numCores;
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
