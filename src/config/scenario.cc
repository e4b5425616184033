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
    if (s.kind == "qos_hetero" && s.qos.numCores % 4 != 0)
        throw ConfigError(s.name + ": qos.cores must be a multiple "
                                   "of 4 for the heterogeneous "
                                   "cluster matrix");

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

std::vector<std::pair<std::string, SystemConfig>>
scenarioMachines(const Scenario &s)
{
    std::vector<std::pair<std::string, SystemConfig>> machines;
    if (s.kind == "timed" || s.kind == "functional")
        machines.emplace_back("", s.system);
    if (s.kind == "fig9") {
        const std::vector<WorkloadMix> mixes =
            s.fig9.mixes.empty() ? presetMixes() : s.fig9.mixes;
        for (const WorkloadMix &mix : mixes) {
            for (BtbMode mode : {BtbMode::Dedicated, BtbMode::Virtualized})
                machines.emplace_back("fig9 machine (mix \"" + mix.name +
                                          "\", " + btbModeName(mode) +
                                          ")",
                                      fig9Config(mix, s.fig9, mode));
        }
    }
    if (s.kind == "qos" || s.kind == "qos_hetero") {
        const std::vector<QosSetting> settings =
            s.qos.settings.empty() ? presetQosSettings()
                                   : s.qos.settings;
        for (const QosSetting &setting : settings)
            machines.emplace_back("qos machine (setting \"" +
                                      setting.label + "\")",
                                  qosConfig(s.qos, setting));
    }
    if (s.kind == "paper") {
        for (const SystemConfig &cfg : paperMachines(s.paper))
            machines.emplace_back("paper machine (" + cfg.workloadFor(0) +
                                      ", " + cfg.label() + ")",
                                  cfg);
    }
    return machines;
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

// The artifact row schema, one emitter per row kind.

std::string
functionalRowJson(const FunctionalResult &r)
{
    std::ostringstream os;
    os << "{\"covered_pct\": " << r.coverage.coveredPct()
       << ", \"uncovered_pct\": " << r.coverage.uncoveredPct()
       << ", \"overprediction_pct\": "
       << r.coverage.overpredictionPct()
       << ", \"l2_requests\": " << r.traffic.l2Requests
       << ", \"l2_requests_pv\": " << r.traffic.l2RequestsPv
       << ", \"l2_misses\": " << r.traffic.l2Misses()
       << ", \"l2_writebacks\": " << r.traffic.l2Writebacks()
       << ", \"offchip_bytes\": " << r.traffic.offChipBytes()
       << ", \"pv_l2_fill_rate\": " << r.pvL2FillRate << "}";
    return os.str();
}

/** IPC + host-cost body of one TimedRun (no braces): a timed row,
 *  and the qos_hetero "reference"/"protected" objects. */
std::string
timedRunJson(const TimedRun &r)
{
    std::ostringstream os;
    os << "\"ipc\": " << r.ipc
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"records\": " << r.records
       << ", \"records_per_sec\": " << r.recordsPerSec()
       << ", \"events\": " << r.eventsExecuted;
    return os.str();
}

std::string
fig9RowJson(const Fig9Row &r)
{
    std::ostringstream os;
    os << "{\"mix\": \"" << r.mix
       << "\", \"edge_stability\": " << r.edgeStability
       << ", \"dedicated_ipc\": " << r.dedicatedIpc
       << ", \"virtualized_ipc\": " << r.virtualizedIpc
       << ", \"dedicated_hit_pct\": " << r.dedicatedHitPct
       << ", \"virtualized_hit_pct\": " << r.virtualizedHitPct
       << ", \"speedup_pct\": " << r.speedupPct
       << ", \"ci_pct\": " << r.ciPct
       << ", \"virtualized_avail_redirect_pct\": "
       << r.virtualizedAvailRedirectPct
       << ", \"prefetch_fills\": " << r.prefetchFills
       << ", \"prefetch_useful\": " << r.prefetchUseful
       << ", \"prefetch_drops\": " << r.prefetchDrops
       << ", \"victim_hits\": " << r.victimHits
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"records\": " << r.records
       << ", \"records_per_sec\": " << r.recordsPerSec()
       << ", \"events\": " << r.eventsExecuted
       << ", \"jobs_effective\": " << r.jobsEffective << "}";
    return os.str();
}

std::string
qosRowJson(const QosRow &r)
{
    std::ostringstream os;
    os << "{\"setting\": \"" << r.label
       << "\", \"btb_weight\": " << r.btbWeight
       << ", \"aggressor_weight\": " << r.aggressorWeight
       << ", \"ipc\": " << r.ipc
       << ", \"avail_redirect_pct\": " << r.availRedirectPct
       << ", \"btb_hit_pct\": " << r.btbHitPct
       << ", \"btb_drop_pct\": " << r.btbDropPct
       << ", \"aggressor_drop_pct\": " << r.aggressorDropPct
       << ", \"btb_fill_latency\": " << r.btbFillLatency
       << ", \"ipc_delta_pct\": " << r.ipcDeltaPct
       << ", \"avail_improvement_pct\": " << r.availImprovementPct
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"records\": " << r.records
       << ", \"records_per_sec\": " << r.recordsPerSec()
       << ", \"events\": " << r.eventsExecuted
       << ", \"jobs_effective\": " << r.jobsEffective << "}";
    return os.str();
}

std::string
qosClusterRowJson(const QosClusterRow &c)
{
    std::ostringstream os;
    os << "{\"cluster\": \"" << c.cluster
       << "\", \"mix\": \"" << c.mix
       << "\", \"contract\": \"" << c.contract
       << "\", \"btb_weight\": " << c.btbWeight
       << ", \"aggressor_weight\": " << c.aggressorWeight
       << ", \"cores\": " << c.cores
       << ", \"avail_redirect_pct\": " << c.availRedirectPct
       << ", \"ref_avail_redirect_pct\": " << c.refAvailRedirectPct
       << ", \"avail_improvement_pct\": " << c.availImprovementPct
       << ", \"btb_hit_pct\": " << c.btbHitPct
       << ", \"btb_drop_pct\": " << c.btbDropPct
       << ", \"ref_btb_drop_pct\": " << c.refBtbDropPct
       << ", \"aggressor_drop_pct\": " << c.aggressorDropPct << "}";
    return os.str();
}

std::string
paperRowJson(const PaperRow &r)
{
    std::ostringstream os;
    // Round-trip precision: byte counts print as integers, and the
    // ledger reads the values the runs computed.
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{\"figure\": " << json::quote(r.figure)
       << ", \"workload\": " << json::quote(r.workload)
       << ", \"config\": " << json::quote(r.config);
    for (const auto &[field, text] : r.text)
        os << ", " << json::quote(field) << ": " << json::quote(text);
    for (const auto &[field, v] : r.values)
        os << ", " << json::quote(field) << ": " << v;
    os << "}";
    return os.str();
}

} // namespace

std::string
runScenarioJson(const Scenario &s, const std::string &file_label)
{
    std::vector<std::string> rows;
    std::string extra;

    if (s.kind == "timed") {
        TimedRun r =
            timedRun(s.system, s.warmupRecords, s.measureRecords);
        rows.push_back("{" + timedRunJson(r) + "}");
    } else if (s.kind == "functional") {
        rows.push_back(functionalRowJson(runFunctionalMeasured(
            s.system, s.warmupRefs, s.measureRefs)));
    } else if (s.kind == "fig9") {
        for (const Fig9Row &r : fig9Sweep(s.fig9))
            rows.push_back(fig9RowJson(r));
    } else if (s.kind == "qos") {
        for (const QosRow &r : qosSweep(s.qos))
            rows.push_back(qosRowJson(r));
    } else if (s.kind == "qos_hetero") {
        QosHeterogeneousResult het = qosHeterogeneous(s.qos);
        for (const QosClusterRow &c : het.clusters)
            rows.push_back(qosClusterRowJson(c));
        std::ostringstream os;
        os << ",\n      \"reference\": {"
           << timedRunJson(het.referenceRun) << "},\n"
           << "      \"protected\": {"
           << timedRunJson(het.protectedRun) << "}";
        extra = os.str();
    } else if (s.kind == "paper") {
        const PaperBudget budget{s.warmupRefs, s.measureRefs,
                                 s.warmupRecords, s.measureRecords};
        for (const PaperRow &r : paperRows(s.paper, budget))
            rows.push_back(paperRowJson(r));
    } else {
        throw ConfigError(s.name + ": unknown kind \"" + s.kind +
                          "\"");
    }

    std::ostringstream os;
    os << "{\n      \"name\": " << json::quote(s.name)
       << ",\n      \"kind\": " << json::quote(s.kind)
       << ",\n      \"file\": " << json::quote(file_label)
       << ",\n      \"fingerprint\": "
       << json::quote(
              config::fingerprintHex(scenarioFingerprint(s)))
       << ",\n      \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i)
        os << "        " << rows[i]
           << (i + 1 < rows.size() ? "," : "") << "\n";
    os << "      ]" << extra << "\n    }";
    return os.str();
}

} // namespace pvsim
