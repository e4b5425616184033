/**
 * @file
 * Tests for the reflective config (de)serialization layer: the JSON
 * document model (strict parse, deterministic dump, number classes),
 * the field-visitor round trip over the real config tree, strict
 * unknown-key rejection with full dotted paths, defaulting, preset
 * shorthands, and fingerprint stability/sensitivity.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "config/fields.hh"
#include "config/json.hh"

using namespace pvsim;
using json::ConfigError;
using json::Value;

// ---- JSON document model ----------------------------------------------

TEST(JsonTest, ParsesScalarsWithLexicalNumberClasses)
{
    Value v = Value::parse(
        "{\"a\": 1, \"b\": -2, \"c\": 1.5, \"d\": true, "
        "\"e\": \"s\", \"f\": null, \"g\": 1e3}");
    EXPECT_EQ(v.find("a")->type(), Value::Type::Uint);
    EXPECT_EQ(v.find("b")->type(), Value::Type::Int);
    EXPECT_EQ(v.find("c")->type(), Value::Type::Real);
    EXPECT_TRUE(v.find("d")->isBool());
    EXPECT_TRUE(v.find("e")->isString());
    EXPECT_TRUE(v.find("f")->isNull());
    EXPECT_EQ(v.find("g")->type(), Value::Type::Real);
    EXPECT_EQ(v.find("a")->asUint("a"), 1u);
    EXPECT_EQ(v.find("b")->asInt("b"), -2);
    EXPECT_DOUBLE_EQ(v.find("c")->asDouble("c"), 1.5);
}

TEST(JsonTest, IntegersAcceptedAsDoublesButNotViceVersa)
{
    Value v = Value::parse("{\"i\": 3, \"r\": 3.5}");
    EXPECT_DOUBLE_EQ(v.find("i")->asDouble("i"), 3.0);
    EXPECT_THROW(v.find("r")->asUint("r"), ConfigError);
}

TEST(JsonTest, NegativeRejectedAsUnsigned)
{
    Value v = Value::parse("{\"n\": -1}");
    try {
        v.find("n")->asUint("top.n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("top.n"),
                  std::string::npos);
    }
}

TEST(JsonTest, SyntaxErrorsCarryLineAndColumn)
{
    try {
        Value::parse("{\n  \"a\": 1,\n  }");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("3:3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JsonTest, DuplicateKeysRejected)
{
    EXPECT_THROW(Value::parse("{\"a\": 1, \"a\": 2}"), ConfigError);
}

TEST(JsonTest, TrailingGarbageRejected)
{
    EXPECT_THROW(Value::parse("{} x"), ConfigError);
}

TEST(JsonTest, DeepNestingRejectedWithPosition)
{
    // The parser recurses once per level: 50,000 nested arrays, or
    // 30,000 nested objects, used to overflow an 8 MiB stack.
    auto nested = [](const std::string &open, const std::string &close,
                     size_t depth) {
        std::string doc;
        for (size_t i = 0; i < depth; ++i)
            doc += open;
        doc += "1";
        for (size_t i = 0; i < depth; ++i)
            doc += close;
        return doc;
    };
    const size_t limit = Value::kMaxDepth;
    EXPECT_NO_THROW(Value::parse(nested("[", "]", limit)));
    EXPECT_NO_THROW(Value::parse(nested("{\"a\": ", "}", limit)));
    const std::pair<std::string, std::string> shapes[] = {
        {"[", "]"}, {"{\"a\": ", "}"}};
    for (const auto &[open, close] : shapes) {
        for (size_t depth : {limit + 1, size_t(30'000), size_t(50'000)}) {
            try {
                Value::parse(nested(open, close, depth));
                ADD_FAILURE() << "expected ConfigError at depth " << depth;
            } catch (const ConfigError &e) {
                // The first level past the limit: column 257 of [[[...
                const std::string want =
                    "json parse error at 1:" +
                    std::to_string(limit * open.size() + 1) +
                    ": nested deeper than " + std::to_string(limit);
                EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u)
                    << e.what();
            }
        }
    }
}

TEST(JsonTest, DumpIsStableUnderReparse)
{
    Value v = Value::parse(
        "{\"b\": [1, 2.25, -3], \"a\": {\"x\": \"y\"}, "
        "\"big\": 18446744073709551615}");
    std::string once = v.dump();
    std::string twice = Value::parse(once).dump();
    EXPECT_EQ(once, twice);
    // Insertion order is preserved: "b" stays before "a".
    EXPECT_LT(once.find("\"b\""), once.find("\"a\""));
    // uint64_t max round-trips exactly (never through a double).
    EXPECT_NE(once.find("18446744073709551615"), std::string::npos);
}

TEST(JsonTest, FormatRealShortestRoundTrip)
{
    for (double d : {0.1, 1.0 / 3.0, 1e-9, 12345.6789, 0.93, -2.5}) {
        std::string s = json::formatReal(d);
        EXPECT_EQ(std::stod(s), d) << s;
    }
    // Whole-valued reals keep a mark that re-parses as Real.
    std::string one = json::formatReal(1.0);
    EXPECT_TRUE(one.find('.') != std::string::npos ||
                one.find('e') != std::string::npos)
        << one;
}

// ---- Reflection round trips over the real config tree -----------------

TEST(ReflectTest, SystemConfigRoundTripsByteStable)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.prefetch = PrefetchMode::SmsVirtualized;
    cfg.phtGeometry = {1024, 11};
    cfg.pvCacheEntries = 64;
    cfg.workloadMix = {"apache", "qry2"};
    cfg.branchProfile.enabled = true;
    cfg.branchProfile.edgeStability = 0.93;

    std::string once = config::dumpConfig(cfg);
    SystemConfig back = config::parseConfig<SystemConfig>(once);
    EXPECT_EQ(config::dumpConfig(back), once);
    EXPECT_EQ(back.numCores, 16);
    EXPECT_EQ(back.prefetch, PrefetchMode::SmsVirtualized);
    EXPECT_EQ(back.phtGeometry.numSets, 1024u);
    EXPECT_EQ(back.workloadMix.size(), 2u);
    EXPECT_DOUBLE_EQ(back.branchProfile.edgeStability, 0.93);
}

TEST(ReflectTest, AbsentKeysKeepDefaults)
{
    SystemConfig cfg = config::parseConfig<SystemConfig>(
        "{\"num_cores\": 8}");
    SystemConfig def;
    EXPECT_EQ(cfg.numCores, 8);
    EXPECT_EQ(cfg.l2SizeBytes, def.l2SizeBytes);
    EXPECT_EQ(cfg.workload, def.workload);
    EXPECT_EQ(cfg.prefetch, def.prefetch);
}

TEST(ReflectTest, UnknownKeysRejectedWithFullPath)
{
    try {
        config::parseConfig<SystemConfig>(
            "{\"btb\": {\"mode\": \"virtualized\", \"sets\": 4}}",
            "system");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(
            std::string(e.what()).find("system.btb: unknown key"),
            std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("\"sets\""),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReflectTest, VectorElementErrorsCarryIndexedPaths)
{
    try {
        config::parseConfig<Fig9Options>(
            "{\"edge_stabilities\": [0.5, \"oops\"]}", "fig9");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "fig9.edge_stabilities[1]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReflectTest, EnumRoundTripAndErrorListsValidNames)
{
    SystemConfig cfg;
    cfg.prefetch = PrefetchMode::SmsInfinite;
    SystemConfig back =
        config::parseConfig<SystemConfig>(config::dumpConfig(cfg));
    EXPECT_EQ(back.prefetch, PrefetchMode::SmsInfinite);

    try {
        config::parseConfig<SystemConfig>(
            "{\"prefetch\": \"smsvirt\"}", "s");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("s.prefetch"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sms_virtualized"), std::string::npos)
            << msg;
    }
}

TEST(ReflectTest, OutOfRangeIntegerRejected)
{
    // btb assoc is a 32-bit unsigned; 2^32 does not fit.
    EXPECT_THROW(config::parseConfig<BtbConfig>(
                     "{\"assoc\": 4294967296}", "btb"),
                 ConfigError);
}

TEST(ReflectTest, WorkloadMixFromPresetString)
{
    Fig9Options opt = config::parseConfig<Fig9Options>(
        "{\"mixes\": [\"mixed\", \"web\"]}");
    ASSERT_EQ(opt.mixes.size(), 2u);
    EXPECT_EQ(opt.mixes[0].name, "mixed");
    EXPECT_EQ(opt.mixes[0].workloads.size(), 4u);
    EXPECT_TRUE(opt.mixes[0].branch.enabled);
    EXPECT_EQ(opt.mixes[1].name, "web");

    try {
        config::parseConfig<Fig9Options>(
            "{\"mixes\": [\"nope\"]}", "fig9");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("fig9.mixes[0]"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("mixed"), std::string::npos) << msg;
    }
}

TEST(ReflectTest, QosSettingFromPresetLabel)
{
    QosOptions opt = config::parseConfig<QosOptions>(
        "{\"settings\": [\"equal\", \"4:1\", \"equal+floor\"]}");
    ASSERT_EQ(opt.settings.size(), 3u);
    EXPECT_EQ(opt.settings[1].btb.weight, 4u);
    EXPECT_EQ(opt.settings[1].aggressor.weight, 1u);
    EXPECT_GT(opt.settings[2].btb.pvCacheFloor, 0u);
    EXPECT_THROW(config::parseConfig<QosOptions>(
                     "{\"settings\": [\"9:9\"]}"),
                 ConfigError);
}

TEST(ReflectTest, FingerprintChangesIffAFieldChanges)
{
    SystemConfig a;
    uint64_t base = config::fingerprint(a);
    // Identical value, identical fingerprint.
    EXPECT_EQ(config::fingerprint(SystemConfig{}), base);

    // Every mutated field moves the fingerprint...
    SystemConfig b = a;
    b.numCores = 5;
    EXPECT_NE(config::fingerprint(b), base);
    SystemConfig c = a;
    c.prefetch = PrefetchMode::SmsInfinite;
    EXPECT_NE(config::fingerprint(c), base);
    SystemConfig d = a;
    d.branchProfile.edgeStability += 0.001;
    EXPECT_NE(config::fingerprint(d), base);
    SystemConfig e = a;
    e.virtEngines.push_back({});
    EXPECT_NE(config::fingerprint(e), base);

    // ...and reverting restores it exactly.
    b.numCores = a.numCores;
    EXPECT_EQ(config::fingerprint(b), base);
}

TEST(ReflectTest, FingerprintHexFormat)
{
    EXPECT_EQ(config::fingerprintHex(0), "0000000000000000");
    EXPECT_EQ(config::fingerprintHex(0xdeadbeefull),
              "00000000deadbeef");
}

TEST(ReflectTest, FnvMatchesReferenceVector)
{
    // FNV-1a 64-bit reference: empty string hashes to the offset
    // basis; "a" to the published test vector.
    EXPECT_EQ(config::fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(config::fnv1a("a"), 12638187200555641996ull);
}
