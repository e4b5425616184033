#include "config/scenario.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/config_presets.hh"
#include "harness/row_json.hh"

namespace pvsim {

using json::ConfigError;

const std::vector<std::string> &
Scenario::kinds()
{
    static const std::vector<std::string> k = {
        "timed", "functional", "fig9", "qos", "qos_hetero",
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
    if (s.kind == "timed" && s.measureRecords == 0)
        throw ConfigError(s.name + ": measure_records must be > 0");
    if (s.kind == "functional" && s.measureRefs == 0)
        throw ConfigError(s.name + ": measure_refs must be > 0");
    if (s.kind == "timed" || s.kind == "functional") {
        if (s.system.numCores < 1)
            throw ConfigError(s.name +
                              ": system.num_cores must be >= 1");
        // Registry entries the System would abort on: a PHT entry
        // (the prefetch mode implies that tenant) or a set that the
        // packing codec cannot lay into one PV line.
        for (size_t i = 0; i < s.system.virtEngines.size(); ++i) {
            const VirtEngineConfig &ec = s.system.virtEngines[i];
            const std::string path = s.name +
                                     ": system.virt_engines[" +
                                     std::to_string(i) + "]";
            if (ec.kind == VirtEngineKind::Pht)
                throw ConfigError(path + ": a PHT tenant comes from "
                                         "prefetch \"sms_virtualized\""
                                         ", not a virt_engines entry");
            if (ec.assoc < 1 || ec.assoc > kPvMaxWays ||
                ec.tagBits > 32)
                throw ConfigError(path + ": assoc must be in [1, " +
                                  std::to_string(kPvMaxWays) +
                                  "] and tag_bits at most 32");
            const unsigned entry_bits = virtEngineEntryBits(ec);
            if (ec.assoc * entry_bits > kBlockBytes * 8)
                throw ConfigError(
                    path + ": a set of " + std::to_string(ec.assoc) +
                    " x " + std::to_string(entry_bits) +
                    "-bit entries does not fit a " +
                    std::to_string(kBlockBytes) + "-byte line");
        }
    }
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
    if (s.kind == "qos" || s.kind == "qos_hetero") {
        if (s.qos.batches == 0)
            throw ConfigError(s.name + ": qos.batches must be >= 1");
        if (s.qos.measureRecords == 0)
            throw ConfigError(s.name +
                              ": qos.measure_records must be > 0");
    }
    if (s.kind == "qos_hetero" && s.qos.numCores % 4 != 0)
        throw ConfigError(s.name + ": qos.cores must be a multiple "
                                   "of 4 for the heterogeneous "
                                   "cluster matrix");
}

int
scenarioCores(const Scenario &s)
{
    if (s.kind == "fig9")
        return s.fig9.numCores;
    if (s.kind == "qos" || s.kind == "qos_hetero")
        return s.qos.numCores;
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

unsigned
fig9JobsEffective(const Fig9Options &opt)
{
    size_t mixes =
        opt.mixes.empty() ? presetMixes().size() : opt.mixes.size();
    size_t stabilities = opt.edgeStabilities.empty()
                             ? 1
                             : opt.edgeStabilities.size();
    return effectiveHarnessJobs(
        unsigned(mixes * stabilities * 2 * opt.batches));
}

unsigned
qosJobsEffective(const QosOptions &opt)
{
    size_t settings = opt.settings.empty()
                          ? presetQosSettings().size()
                          : opt.settings.size();
    return effectiveHarnessJobs(unsigned(settings * opt.batches));
}

namespace {

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
        unsigned jobs = fig9JobsEffective(s.fig9);
        for (const Fig9Row &r : fig9Sweep(s.fig9))
            rows.push_back(fig9RowJson(r, jobs));
    } else if (s.kind == "qos") {
        unsigned jobs = qosJobsEffective(s.qos);
        for (const QosRow &r : qosSweep(s.qos))
            rows.push_back(qosRowJson(r, jobs));
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
