/**
 * @file
 * Tests for the declarative scenario layer: the committed corpus
 * parses, validates, round-trips byte-stably and matches the
 * fingerprint manifest; a parsed config is bit-identical to its
 * programmatic twin in both functional and timing runs; and the
 * acceptance scenario's options equal the fig9 smoke driver's.
 */

#include <gtest/gtest.h>

#include <fstream>
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

} // namespace

// ---- The committed corpus ---------------------------------------------

TEST(ScenarioCorpusTest, EveryScenarioLoadsValidatesAndRoundTrips)
{
    std::vector<std::string> files = listScenarioFiles(scenariosDir());
    EXPECT_GE(files.size(), 12u);
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

// ---- The acceptance scenario mirrors the smoke driver -----------------

TEST(ScenarioCorpusTest, Fig9MixedEqualsTheSmokeSweepOptions)
{
    Scenario s =
        loadScenarioFile(scenariosDir() + "/fig9-mixed.json");
    ASSERT_EQ(s.kind, "fig9");

    // The options `fig9_sweep --smoke` builds from its flags.
    Fig9Options smoke;
    smoke.penalty = 8;
    smoke.numCores = 4;
    smoke.batches = 2;
    smoke.warmupRecords = 1'000;
    smoke.measureRecords = 3'000;
    smoke.edgeStabilities = {kFig9MixStability};

    // Identical canonical form => fig9Sweep receives bit-identical
    // inputs, so its rows are bit-identical too (fig9Sweep is
    // deterministic given its options; only wall-clock fields vary).
    EXPECT_EQ(config::dumpConfig(s.fig9),
              config::dumpConfig(smoke));
    EXPECT_EQ(fig9JobsEffective(s.fig9), fig9JobsEffective(smoke));
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
    auto parse_only = [](const std::string &text) {
        return parseScenario(text); // no validateScenario
    };
    // Unknown kind.
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"sweep\"}")),
        ConfigError);
    // Missing name.
    EXPECT_THROW(validateScenario(parse_only("{\"kind\": \"timed\"}")),
                 ConfigError);
    // Zero measure budget for the kind that runs.
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"timed\","
            " \"measure_records\": 0}")),
        ConfigError);
    // Out-of-range stability (only -1 and [0, 1] are meaningful).
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"fig9\","
            " \"fig9\": {\"edge_stabilities\": [1.5]}}")),
        ConfigError);
    // qos_hetero needs a multiple of 4 cores.
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"qos_hetero\","
            " \"qos\": {\"cores\": 6}}")),
        ConfigError);
    // An engine set wider than one PV line: 8 AGT ways of 16-bit
    // tag + 54-bit payload need 560 of the line's 512 bits.
    expectConfigError(
        [&] {
            validateScenario(parse_only(
                "{\"name\": \"x\", \"kind\": \"timed\","
                " \"system\": {\"virt_engines\": ["
                "   {\"kind\": \"btb\", \"num_sets\": 128},"
                "   {\"kind\": \"agt\", \"num_sets\": 512,"
                "    \"assoc\": 8}]}}"));
        },
        "system.virt_engines[1]");
    // A bare PHT entry: the System would assert on it.
    expectConfigError(
        [&] {
            validateScenario(parse_only(
                "{\"name\": \"x\", \"kind\": \"timed\","
                " \"system\": {\"virt_engines\": ["
                "   {\"kind\": \"pht\", \"num_sets\": 1024}]}}"));
        },
        "system.virt_engines[0]");
    // The valid spellings pass.
    validateScenario(parse_only(
        "{\"name\": \"x\", \"kind\": \"fig9\","
        " \"fig9\": {\"edge_stabilities\": [-1.0, 0.0, 1.0]}}"));
    validateScenario(parse_only(
        "{\"name\": \"x\", \"kind\": \"qos_hetero\","
        " \"qos\": {\"cores\": 8}}"));
    validateScenario(parse_only(
        "{\"name\": \"x\", \"kind\": \"timed\","
        " \"system\": {\"virt_engines\": ["
        "   {\"kind\": \"agt\", \"num_sets\": 512,"
        "    \"assoc\": 4, \"tag_bits\": 12}]}}"));
}

TEST(ScenarioValidateTest, RemovedTimingKnobIsAnUnknownKey)
{
    // Timing always runs one event loop: an old file that still
    // asks for shards fails with the key's path instead of quietly
    // running a different machine.
    expectConfigError(
        [] {
            parseScenario("{\"name\": \"x\", \"kind\": \"timed\","
                          " \"system\": {\"timing_shards\": 4}}",
                          "old.json");
        },
        "old.json.system: unknown key \"timing_shards\"");
}

TEST(ScenarioValidateTest, ScenarioCoresTracksTheRunningSection)
{
    Scenario s;
    s.kind = "timed";
    s.system.numCores = 3;
    s.fig9.numCores = 7;
    s.qos.numCores = 9;
    EXPECT_EQ(scenarioCores(s), 3);
    s.kind = "fig9";
    EXPECT_EQ(scenarioCores(s), 7);
    s.kind = "qos";
    EXPECT_EQ(scenarioCores(s), 9);
    s.kind = "qos_hetero";
    EXPECT_EQ(scenarioCores(s), 9);
}

TEST(ScenarioValidateTest, JobsBookkeepingHonorsPresetDefaults)
{
    // Empty mixes/settings mean "all presets" — the shared helpers
    // must agree with the drivers' bookkeeping on that.
    Fig9Options f;
    f.batches = 1;
    unsigned with_presets = fig9JobsEffective(f);
    f.mixes = presetMixes();
    EXPECT_EQ(fig9JobsEffective(f), with_presets);

    QosOptions q;
    q.batches = 1;
    unsigned with_settings = qosJobsEffective(q);
    q.settings = presetQosSettings();
    EXPECT_EQ(qosJobsEffective(q), with_settings);
}
