/**
 * @file
 * Tests for the declarative scenario layer: the committed corpus
 * parses, validates, round-trips byte-stably, matches the
 * fingerprint manifest and reaches every prefetch, BTB and engine
 * mode; the bench scenarios match the fingerprints recorded in the
 * committed BENCH_*.json artifacts; and a parsed config is
 * bit-identical to its programmatic twin in both functional and
 * timing runs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "config/scenario.hh"
#include "harness/config_presets.hh"
#include "harness/system.hh"

using namespace pvsim;
using json::ConfigError;

namespace {

std::string
scenariosDir()
{
    return std::string(PVSIM_SOURCE_DIR) + "/scenarios";
}

/** scenarios/bench/<sweep>/ is recorded in BENCH_<sweep>.json. */
const char *const kBenchSweeps[] = {"fig9", "qos", "paper"};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
baseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

/** String member key of v ("" and a test failure when absent). */
std::string
member(const json::Value &v, const std::string &key)
{
    const json::Value *m = v.find(key);
    EXPECT_NE(m, nullptr) << "no \"" << key << "\"";
    return m ? m->asString(key) : "";
}

/** Expect every value enumNames() lists for E among `reached`. */
template <class E>
void
expectEveryValueReached(const std::set<E> &reached, const std::string &field)
{
    for (const auto &[value, name] : enumNames(static_cast<E *>(nullptr)))
        EXPECT_TRUE(reached.count(value))
            << field << " \"" << name
            << "\": no machine of scenarios/*.json runs it";
}

/** Expect fn to throw a ConfigError whose message contains needle. */
template <class Fn>
void
expectConfigError(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        ADD_FAILURE() << "no ConfigError (want one naming " << needle
                      << ")";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

/** Expect the scenario {"name": "x", "kind": "<kind_and_body>}
 *  to fail validation with a message containing `want`. */
void
expectInvalid(const std::string &kind_and_body, const std::string &want)
{
    SCOPED_TRACE(kind_and_body);
    expectConfigError(
        [&] {
            validateScenario(parseScenario(
                "{\"name\": \"x\", \"kind\": \"" + kind_and_body + "}"));
        },
        want);
}

} // namespace

// ---- The committed corpus ---------------------------------------------

TEST(ScenarioCorpusTest, EveryScenarioLoadsValidatesAndRoundTrips)
{
    // The corpus, the bench scenarios, then the benchmark's workloads
    // (read only: pvbench runs them as they are).
    std::vector<std::string> files = listScenarioFiles(scenariosDir());
    EXPECT_GE(files.size(), 14u);
    std::vector<std::string> dirs;
    for (const char *sweep : kBenchSweeps)
        dirs.push_back(scenariosDir() + "/bench/" + sweep);
    dirs.push_back(std::string(PVSIM_SOURCE_DIR) + "/pvbench/workloads");
    for (const std::string &dir : dirs) {
        std::vector<std::string> more = listScenarioFiles(dir);
        files.insert(files.end(), more.begin(), more.end());
    }
    for (const std::string &file : files) {
        SCOPED_TRACE(file);
        Scenario s = loadScenarioFile(file); // throws on any defect
        EXPECT_FALSE(s.name.empty());
        EXPECT_GE(scenarioCores(s), 1);
        // Canonical form is byte-stable under reparse.
        std::string canon = dumpScenario(s);
        Scenario again = parseScenario(canon, file);
        EXPECT_EQ(dumpScenario(again), canon);
        EXPECT_EQ(scenarioFingerprint(again),
                  scenarioFingerprint(s));
    }
}

TEST(ScenarioCorpusTest, ManifestMatchesCorpusFingerprints)
{
    json::Value manifest = json::Value::parse(
        readFile(scenariosDir() + "/MANIFEST.json"));
    ASSERT_TRUE(manifest.isObject());
    std::vector<std::string> files = listScenarioFiles(scenariosDir());
    EXPECT_EQ(manifest.members().size(), files.size());
    for (const std::string &file : files) {
        SCOPED_TRACE(file);
        const json::Value *want = manifest.find(baseName(file));
        ASSERT_NE(want, nullptr)
            << "scenario missing from MANIFEST.json — regenerate "
               "with: pvsim fingerprint scenarios --json";
        Scenario s = loadScenarioFile(file);
        EXPECT_EQ(config::fingerprintHex(scenarioFingerprint(s)),
                  want->asString(baseName(file)))
            << "fingerprint drift — regenerate MANIFEST.json";
    }
}

TEST(ScenarioCorpusTest, EveryRunnableScenarioBuildsItsSystem)
{
    // Validation has to catch everything the System would abort on:
    // a file that passes `pvsim validate` must at least wire up.
    for (const std::string &file : listScenarioFiles(scenariosDir())) {
        SCOPED_TRACE(file);
        Scenario s = loadScenarioFile(file);
        if (s.kind != "timed" && s.kind != "functional")
            continue;
        SystemConfig cfg = s.system;
        cfg.mode = s.kind == "timed" ? SimMode::Timing
                                     : SimMode::Functional;
        System sys(cfg);
        EXPECT_EQ(sys.numCores(), cfg.numCores);
    }
}

TEST(ScenarioCorpusTest, CorpusReachesEveryMode)
{
    // A mode that no committed experiment runs earns its place with
    // a scenario, or it goes.
    std::set<PrefetchMode> prefetch;
    std::set<BtbMode> btb;
    std::set<VirtEngineKind> engines;
    for (const std::string &file : listScenarioFiles(scenariosDir())) {
        for (const auto &[label, cfg] :
             scenarioMachines(loadScenarioFile(file))) {
            prefetch.insert(cfg.prefetch);
            btb.insert(cfg.btb.mode);
            for (const VirtEngineConfig &ec : cfg.engineRegistry())
                engines.insert(ec.kind);
        }
    }
    expectEveryValueReached(prefetch, "system.prefetch");
    expectEveryValueReached(btb, "system.btb.mode");
    expectEveryValueReached(engines, "engine kind");
}

TEST(ScenarioCorpusTest, ListingSortsAndExcludesManifest)
{
    std::vector<std::string> files = listScenarioFiles(scenariosDir());
    for (size_t i = 1; i < files.size(); ++i)
        EXPECT_LT(files[i - 1], files[i]);
    for (const std::string &f : files)
        EXPECT_EQ(f.find("MANIFEST"), std::string::npos) << f;
    // A single file expands to itself.
    std::vector<std::string> one = listScenarioFiles(files[0]);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], files[0]);
    EXPECT_THROW(listScenarioFiles(scenariosDir() + "/absent.json"),
                 ConfigError);
}

// ---- The bench scenarios and their recorded artifacts ---------------

TEST(ScenarioBenchTest, CommittedArtifactsCarryTheLiveFingerprints)
{
    // Each BENCH_<name>.json is `pvsim run scenarios/bench/<name>`:
    // editing a bench scenario without re-recording its artifact
    // fails here.
    for (const std::string name : kBenchSweeps) {
        SCOPED_TRACE(name);
        const std::string dir = scenariosDir() + "/bench/" + name;
        json::Value artifact = json::Value::parse(readFile(
            std::string(PVSIM_SOURCE_DIR) + "/BENCH_" + name +
            ".json"));
        const json::Value *entries = artifact.find("scenarios");
        ASSERT_NE(entries, nullptr);
        std::set<std::string> recorded;
        for (const json::Value &e : entries->items()) {
            const std::string file = member(e, "file");
            recorded.insert(file);
            Scenario s = loadScenarioFile(dir + "/" + file);
            EXPECT_EQ(member(e, "name"), s.name);
            EXPECT_EQ(member(e, "fingerprint"),
                      config::fingerprintHex(scenarioFingerprint(s)))
                << file << " changed since BENCH_" << name
                << ".json was recorded: re-record it";
        }
        std::set<std::string> live;
        for (const std::string &f : listScenarioFiles(dir))
            live.insert(baseName(f));
        EXPECT_EQ(recorded, live);
    }
}

// ---- Parsed-vs-programmatic bit-identity ------------------------------

TEST(ScenarioRunTest, ParsedConfigMatchesProgrammaticFunctional)
{
    // The same machine, built in code and parsed from JSON.
    SystemConfig prog = pvConfig("apache", 8);
    Scenario s = parseScenario(
        "{\"name\": \"t\", \"kind\": \"functional\","
        " \"system\": {"
        "   \"workload\": \"apache\","
        "   \"prefetch\": \"sms_virtualized\","
        "   \"pht_geometry\": {\"num_sets\": 1024, \"assoc\": 11},"
        "   \"pv_cache_entries\": 8}}");
    EXPECT_EQ(config::dumpConfig(s.system),
              config::dumpConfig(prog));

    FunctionalResult a = runFunctionalMeasured(prog, 20'000, 50'000);
    FunctionalResult b =
        runFunctionalMeasured(s.system, 20'000, 50'000);
    // Functional fingerprint: exact counter equality, not tolerance.
    EXPECT_EQ(a.coverage.covered, b.coverage.covered);
    EXPECT_EQ(a.coverage.uncovered, b.coverage.uncovered);
    EXPECT_EQ(a.traffic.l2Requests, b.traffic.l2Requests);
    EXPECT_EQ(a.traffic.l2RequestsPv, b.traffic.l2RequestsPv);
    EXPECT_EQ(a.pvL2FillRate, b.pvL2FillRate);
}

TEST(ScenarioRunTest, ParsedConfigMatchesProgrammaticTiming)
{
    SystemConfig prog;
    prog.numCores = 2;
    prog.workloadMix = {"apache", "oracle"};
    prog.btbMispredictPenalty = 8;
    prog.btb.mode = BtbMode::Virtualized;
    prog.btb.numSets = 128;

    Scenario s = parseScenario(
        "{\"name\": \"t\", \"kind\": \"timed\","
        " \"warmup_records\": 500, \"measure_records\": 1500,"
        " \"system\": {"
        "   \"num_cores\": 2,"
        "   \"workload_mix\": [\"apache\", \"oracle\"],"
        "   \"btb_mispredict_penalty\": 8,"
        "   \"btb\": {\"mode\": \"virtualized\","
        "             \"num_sets\": 128}}}");
    EXPECT_EQ(config::dumpConfig(s.system),
              config::dumpConfig(prog));

    // Timing fingerprint: identical simulated outcome, event for
    // event (wall-clock fields excluded by construction).
    TimedRun a = timedRun(prog, 500, 1'500);
    TimedRun b = timedRun(s.system, s.warmupRecords,
                          s.measureRecords);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.records, b.records);
}

// ---- Validation -------------------------------------------------------

TEST(ScenarioValidateTest, RejectsStructuralDefects)
{
    EXPECT_THROW(validateScenario(parseScenario("{\"kind\": \"timed\"}")),
                 ConfigError); // no name
    const std::pair<const char *, const char *> cases[] = {
        {"sweep\"", "x: unknown kind \"sweep\""},
        // Zero measure budget for the kind that runs.
        {"timed\", \"measure_records\": 0", "x: measure_records"},
        // Only -1 and [0, 1] are meaningful stabilities.
        {"fig9\", \"fig9\": {\"edge_stabilities\": [1.5]}",
         "x: fig9.edge_stabilities[0]"},
        {"fig9\", \"batches\": 0", "x: batches must be >= 1"},
        // The cluster matrix needs a multiple of 4 cores that a
        // System can run; it lists them before any machine is checked.
        {"qos_hetero\", \"system\": {\"num_cores\": 6}",
         "x: system.num_cores must be a multiple of 4"},
        {"qos_hetero\", \"system\": {\"num_cores\": -4}",
         "x: system.num_cores must be a multiple of 4"},
        {"qos_hetero\", \"system\": {\"num_cores\": 0}",
         "x: system.num_cores must be a multiple of 4"},
        {"qos_hetero\", \"system\": {\"num_cores\": 2147483644}",
         "x: system.num_cores must be a multiple of 4"},
        // An entry listed twice would repeat its rows' keys.
        {"fig9\", \"fig9\": {\"mixes\": [\"web\", \"web\"]}",
         "x: fig9.mixes[1]: \"web\" is listed twice"},
        {"qos\", \"qos\": {\"settings\": [\"4:1\", \"4:1\"]}",
         "x: qos.settings[1]: \"4:1\" is listed twice"},
        // So would two stabilities a mix runs as one (a fig9 row is
        // keyed by the stability its machines run).
        {"fig9\", \"fig9\": {\"edge_stabilities\": [-1.0, -1.0]}",
         "x: fig9.edge_stabilities[1]: \"web at 0.95\" is listed twice"},
        {"fig9\", \"fig9\": {\"mixes\": [\"mixed\"],"
         " \"edge_stabilities\": [-1.0, 0.93]}",
         "x: fig9.edge_stabilities[1]: \"mixed at 0.93\" is listed twice"},
        {"fig9\", \"fig9\": {\"mixes\": [{\"name\": \"flat\","
         " \"workloads\": [\"apache\"]}], \"edge_stabilities\": [0.5, 0.7]}",
         "x: fig9.edge_stabilities[1]: \"flat at 0.0\" is listed twice"},
    };
    for (const auto &[body, want] : cases)
        expectInvalid(body, want);
    // At penalty 0 a sweep would measure no BTB effect.
    for (const std::string kind : {"fig9", "qos", "qos_hetero"})
        expectInvalid(kind + "\"", "x: system.btb_mispredict_penalty is 0, "
                                   "but kind \"" + kind + "\" needs");
    // A non-default value in a field or section the kind never reads.
    const std::pair<const char *, const char *> unread[] = {
        {"qos\", \"measure_refs\": 100", "measure_refs"},
        {"timed\", \"warmup_refs\": 100", "warmup_refs"},
        {"functional\", \"measure_records\": 100", "measure_records"},
        {"functional\", \"batches\": 2", "batches"},
        {"timed\", \"batches\": 2", "batches"},
        {"timed\", \"fig9\": {\"mixes\": [\"web\"]}", "fig9"},
        {"fig9\", \"qos\": {\"agt_sets\": 256}", "qos"},
        {"qos_hetero\", \"qos\": {\"settings\": [\"4:1\"]}",
         "qos.settings"},
        {"timed\", \"paper\": {\"figures\": [\"fig4\"]}", "paper"},
        {"paper\", \"system\": {\"num_cores\": 2}", "system"},
    };
    for (const auto &[body, path] : unread)
        expectInvalid(body, std::string("x: ") + path + " is set");
    // The valid spellings pass.
    for (const char *body :
         {"\"fig9\", \"system\": {\"btb_mispredict_penalty\": 8},"
          " \"fig9\": {\"edge_stabilities\": [-1.0, 0.0, 1.0]}",
          // Every timing kind reads the records; the matched-pair
          // kinds also read the batches.
          "\"fig9\", \"system\": {\"btb_mispredict_penalty\": 8},"
          " \"warmup_records\": 100, \"batches\": 3",
          "\"timed\", \"warmup_records\": 100",
          "\"qos\", \"system\": {\"btb_mispredict_penalty\": 8},"
          " \"qos\": {\"settings\": [\"4:1\"]}",
          "\"qos_hetero\", \"system\": {\"num_cores\": 8,"
          " \"btb_mispredict_penalty\": 8}",
          "\"timed\", \"system\": {\"virt_engines\": [{\"kind\": \"agt\","
          " \"num_sets\": 512, \"assoc\": 4, \"tag_bits\": 12}]}",
          // The paper kind reads all five top-level budget fields.
          "\"paper\", \"warmup_refs\": 10, \"measure_refs\": 20,"
          " \"warmup_records\": 10, \"measure_records\": 20,"
          " \"batches\": 3, \"paper\": {\"figures\": [\"fig9\"],"
          " \"workloads\": [\"qry1\"]}"})
        validateScenario(parseScenario(
            std::string("{\"name\": \"x\", \"kind\": ") + body + "}"));
}

TEST(ScenarioValidateTest, SweepsRejectTheFieldsTheySet)
{
    // Each sweep overwrites these fields of `system` on every machine
    // it builds, so a value there would never run. The QoS sweeps
    // also install both tenants' contracts.
    struct Case {
        const char *field, *path;
        bool qosOnly;
    };
    const Case cases[] = {
        {"\"workload\": \"qry1\"", "system.workload", false},
        {"\"workload_mix\": [\"qry1\"]", "system.workload_mix", false},
        {"\"branch_profile\": {\"enabled\": true}",
         "system.branch_profile", false},
        {"\"prefetch\": \"sms_virtualized\"", "system.prefetch", false},
        {"\"btb\": {\"mode\": \"dedicated\"}", "system.btb.mode", false},
        {"\"btb\": {\"qos\": {\"weight\": 4}}", "system.btb.qos", true},
        {"\"virt_engines\": [{\"kind\": \"agt\"}]", "system.virt_engines",
         true},
    };
    for (const std::string kind : {"fig9", "qos", "qos_hetero"}) {
        for (const Case &c : cases) {
            if (c.qosOnly && kind == "fig9")
                continue;
            expectInvalid(kind + "\", \"system\": {" + c.field + "}",
                          std::string("x: ") + c.path + " is set, but kind \"" +
                              kind + "\" sets it itself");
        }
    }
    // fig9 runs a BTB contract and registered engines as given.
    validateScenario(parseScenario(
        "{\"name\": \"x\", \"kind\": \"fig9\", \"system\": {"
        "\"btb_mispredict_penalty\": 8, \"btb\": {\"num_sets\": 128,"
        " \"qos\": {\"weight\": 4}}, \"virt_engines\": [{\"kind\":"
        " \"agt\", \"num_sets\": 64, \"assoc\": 4, \"tag_bits\": 12}]}}"));
}

TEST(ScenarioValidateTest, RejectsMachinesSystemCannotRun)
{
    // Each passed validation once, then aborted `pvsim run` and the
    // rest of its batch: a division by zero, an assert or a
    // lost-wake-up panic in the System, or a fatal in the presets.
    // fig9 builds its machines from `system`.
    const std::pair<const char *, const char *> cases[] = {
        {"timed\", \"system\": {\"l1_assoc\": 0}", "x: system.l1_assoc"},
        {"timed\", \"system\": {\"num_cores\": 129}", "x: system.num_cores"},
        {"timed\", \"system\": {\"btb\": {\"mode\": \"virtualized\","
         " \"num_sets\": 4096}}", "x: system.pv_bytes_per_core"},
        {"timed\", \"system\": {\"l2_size_bytes\": 1000}",
         "x: system.l2_size_bytes"},
        {"timed\", \"system\": {\"prefetch\": \"sms_virtualized\","
         " \"pv_cache_entries\": 0}", "x: system.pv_cache_entries"},
        {"timed\", \"system\": {\"l1_mshrs\": 0}", "x: system.l1_mshrs"},
        {"timed\", \"system\": {\"workload\": \"nosuch\"}",
         "x: system.workload"},
        {"fig9\", \"system\": {\"num_cores\": 0,"
         " \"btb_mispredict_penalty\": 8}", "system.num_cores"},
        // 8 AGT ways of 16-bit tag + 54-bit payload need 560 of the
        // line's 512 bits.
        {"timed\", \"system\": {\"virt_engines\": [{\"kind\": \"btb\","
         " \"num_sets\": 128}, {\"kind\": \"agt\", \"num_sets\": 512,"
         " \"assoc\": 8}]}", "x: system.virt_engines[1]"},
        // The prefetch mode implies the PHT tenant.
        {"timed\", \"system\": {\"virt_engines\": [{\"kind\": \"pht\","
         " \"num_sets\": 1024}]}", "x: system.virt_engines[0]"},
    };
    for (const auto &[body, want] : cases)
        expectInvalid(body, want);
    // 128 cores fill the directory's 256 client slots exactly.
    validateScenario(parseScenario(
        "{\"name\": \"x\", \"system\": {\"num_cores\": 128}}"));
}

TEST(ScenarioValidateTest, RejectsDelaysThatWrapTicks)
{
    // At 2^64 - 1 each of these validated, then `pvsim run` aborted
    // on the event queue's "event scheduled in the past" panic.
    const std::string bound = std::to_string(kMaxDelayCycles);
    for (const char *key :
         {"l1_tag_latency", "l1_data_latency", "l2_tag_latency",
          "l2_data_latency", "mem_latency", "mem_service_interval",
          "btb_mispredict_penalty"}) {
        const std::string system = std::string("\"system\": {\"") + key;
        expectInvalid("timed\", " + system +
                          "\": 18446744073709551615}",
                      std::string("x: system.") + key + ": must be <= " +
                          bound + " cycles");
        validateScenario(parseScenario(
            "{\"name\": \"x\", \"kind\": \"timed\", " + system +
            "\": " + bound + "}}"));
    }
}

TEST(ScenarioValidateTest, PaperKindChecksItsSection)
{
    const std::pair<const char *, const char *> cases[] = {
        {"paper\", \"paper\": {\"figures\": [\"fig12\"]}",
         "x: paper.figures[0]: \"fig12\" is unknown"},
        {"paper\", \"paper\": {\"figures\": [\"fig4\", \"fig4\"]}",
         "x: paper.figures[1]: \"fig4\" is listed twice"},
        {"paper\", \"paper\": {\"workloads\": [\"apache\", \"nosuch\"]}",
         "x: paper.workloads[1]: \"nosuch\" is unknown"},
        {"paper\", \"batches\": 0", "x: batches must be >= 1"},
        {"paper\", \"measure_refs\": 0", "x: measure_refs must be > 0"},
    };
    for (const auto &[body, want] : cases)
        expectInvalid(body, want);
}

TEST(ScenarioValidateTest, RemovedKeysAreUnknownKeys)
{
    // An old file that still sets a removed key fails with the key's
    // path instead of quietly running a different machine: timing
    // always runs one event loop, the functional round-robin chunk is
    // a constant of the model, the kind decides the mode, a machine
    // field lives only in `system` and the run lengths only at the
    // top level.
    const std::pair<const char *, const char *> cases[] = {
        {"\"timed\", \"system\": {\"timing_shards\": 4}",
         "old.json.system: unknown key \"timing_shards\""},
        {"\"functional\", \"system\": {\"functional_chunk\": 1}",
         "old.json.system: unknown key \"functional_chunk\""},
        {"\"qos\", \"qos\": {\"pvcache_entries\": 12}",
         "old.json.qos: unknown key \"pvcache_entries\""},
        {"\"fig9\", \"fig9\": {\"cores\": 4}",
         "old.json.fig9: unknown key \"cores\""},
        {"\"fig9\", \"fig9\": {\"batches\": 2}",
         "old.json.fig9: unknown key \"batches\""},
        {"\"qos\", \"qos\": {\"penalty_cycles\": 8}",
         "old.json.qos: unknown key \"penalty_cycles\""},
        {"\"qos\", \"qos\": {\"warmup_records\": 1000}",
         "old.json.qos: unknown key \"warmup_records\""},
        {"\"paper\", \"paper\": {\"batches\": 2}",
         "old.json.paper: unknown key \"batches\""},
        {"\"functional\", \"system\": {\"mode\": \"timing\"}",
         "old.json.system: unknown key \"mode\""},
    };
    for (const auto &[body, want] : cases) {
        SCOPED_TRACE(body);
        expectConfigError(
            [&] {
                parseScenario(std::string("{\"name\": \"x\", \"kind\": ") +
                                  body + "}",
                              "old.json");
            },
            want);
    }
}

TEST(ScenarioValidateTest, ScenarioCoresTracksTheRunningSection)
{
    Scenario s;
    s.system.numCores = 3;
    for (const std::string &kind : Scenario::kinds()) {
        s.kind = kind;
        // Every kind runs `system` but paper, which runs Table 1's CMP.
        EXPECT_EQ(scenarioCores(s), kind == "paper" ? 4 : 3) << kind;
    }
}
