/**
 * @file
 * pvsim — the declarative scenario runner. Turns "add an
 * experiment" from a C++ driver into a JSON file:
 *
 *   pvsim run scenarios/fig9-mixed.json   run scenarios, emit rows
 *   pvsim run scenarios --max-cores 8     directory = whole corpus
 *   pvsim validate scenarios              strict-parse + round-trip
 *   pvsim fingerprint scenarios --json    manifest of fingerprints
 *
 * `run` executes each scenario through the harness and emits its
 * rows (every BENCH_*.json is `pvsim run scenarios/bench/<name>`);
 * `validate` fails on any syntax error, unknown key, structural
 * violation, or canonical-form round-trip instability;
 * `fingerprint --json` prints the {file: fingerprint} object
 * committed as scenarios/MANIFEST.json, which scenario_test
 * compares against the live corpus.
 *
 * Exit status: 0 all good, 1 any scenario failed or the artifact
 * could not be written, 2 bad usage (including any option the
 * command does not read).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "config/scenario.hh"
#include "util/args.hh"

using namespace pvsim;

namespace {

int
usage()
{
    std::cerr
        << "usage: pvsim <command> <file-or-dir>... [options]\n"
           "\n"
           "commands:\n"
           "  run          execute scenarios, print a rows artifact\n"
           "  validate     strict-parse, validate, round-trip check\n"
           "  fingerprint  print stable config fingerprints\n"
           "\n"
           "options:\n"
           "  --json-out FILE   (run) also write the artifact here\n"
           "  --max-cores N     (run) skip scenarios larger than N\n"
           "                    simulated cores (CI smoke subsets)\n"
           "  --json            (fingerprint) manifest-format output\n";
    return 2;
}

/** Expand every positional path into scenario files. */
std::vector<std::string>
expandPaths(const std::vector<std::string> &paths)
{
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::vector<std::string> part = listScenarioFiles(p);
        files.insert(files.end(), part.begin(), part.end());
    }
    return files;
}

std::string
baseName(const std::string &path)
{
    return std::filesystem::path(path).filename().string();
}

int
cmdRun(const std::vector<std::string> &files, uint64_t max_cores,
       const std::string &json_out)
{
    // Open the artifact before running anything: an unwritable path
    // fails now, not after the whole sweep.
    std::ofstream out;
    auto cannot_write = [&] {
        std::cerr << "pvsim: cannot write " << json_out << "\n";
        return 1;
    };
    if (!json_out.empty()) {
        out.open(json_out);
        if (!out)
            return cannot_write();
    }

    std::ostringstream js;
    js << "{\n  \"bench\": \"pvsim\",\n  \"scenarios\": [\n";
    bool first = true;
    int failures = 0;
    unsigned ran = 0, skipped = 0;
    for (const std::string &file : files) {
        try {
            Scenario s = loadScenarioFile(file);
            if (max_cores > 0 &&
                uint64_t(scenarioCores(s)) > max_cores) {
                std::cout << "skip " << file << " ("
                          << scenarioCores(s) << " cores > --max-cores "
                          << max_cores << ")\n";
                ++skipped;
                continue;
            }
            std::cout << "run  " << file << " [" << s.kind << ", "
                      << scenarioCores(s) << " cores] ..."
                      << std::endl;
            std::string result = runScenarioJson(s, baseName(file));
            if (!first)
                js << ",\n";
            js << "    " << result;
            first = false;
            ++ran;
        } catch (const std::exception &e) {
            std::cerr << "FAIL " << file << ": " << e.what() << "\n";
            ++failures;
        }
    }
    js << "\n  ],\n  \"ran\": " << ran
       << ",\n  \"skipped\": " << skipped
       << ",\n  \"failed\": " << failures << "\n}\n";

    std::cout << "\n" << js.str();
    if (!json_out.empty() && !(out << js.str() << std::flush))
        return cannot_write();
    return failures ? 1 : 0;
}

int
cmdValidate(const std::vector<std::string> &files)
{
    int failures = 0;
    for (const std::string &file : files) {
        try {
            Scenario s = loadScenarioFile(file);
            // Round-trip stability: the canonical form must parse
            // back to a scenario with the identical canonical form
            // (and so the identical fingerprint).
            std::string canon = dumpScenario(s);
            Scenario again = parseScenario(canon, file + " (canon)");
            if (dumpScenario(again) != canon)
                throw json::ConfigError(
                    "canonical serialization is not round-trip "
                    "stable");
            std::cout << "ok   " << file << " [" << s.kind << ", "
                      << scenarioCores(s) << " cores, fp "
                      << config::fingerprintHex(
                             scenarioFingerprint(s))
                      << "]\n";
        } catch (const std::exception &e) {
            std::cerr << "FAIL " << file << ": " << e.what() << "\n";
            ++failures;
        }
    }
    std::cout << (failures ? "validate: FAILED\n" : "validate: all ok\n");
    return failures ? 1 : 0;
}

int
cmdFingerprint(const std::vector<std::string> &files, bool as_json)
{
    int failures = 0;
    std::ostringstream js;
    js << "{\n";
    bool first = true;
    for (const std::string &file : files) {
        try {
            Scenario s = loadScenarioFile(file);
            std::string fp =
                config::fingerprintHex(scenarioFingerprint(s));
            if (as_json) {
                if (!first)
                    js << ",\n";
                js << "  " << json::quote(baseName(file)) << ": "
                   << json::quote(fp);
                first = false;
            } else {
                std::cout << fp << "  " << file << "\n";
            }
        } catch (const std::exception &e) {
            std::cerr << "FAIL " << file << ": " << e.what() << "\n";
            ++failures;
        }
    }
    js << "\n}\n";
    if (as_json)
        std::cout << js.str();
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const std::vector<std::string> &pos = args.positional();
    if (pos.empty())
        return usage();
    const std::string &cmd = pos[0];
    std::vector<std::string> paths(pos.begin() + 1, pos.end());
    if (paths.empty())
        return usage();

    // Read every option the command takes up front, so a flag it
    // does not take (a typo, a retired flag) fails before any work.
    uint64_t max_cores = 0;
    std::string json_out;
    bool as_json = false;
    if (cmd == "run") {
        max_cores = args.getUint("max-cores", 0);
        json_out = args.getString("json-out", "");
    } else if (cmd == "fingerprint") {
        as_json = args.getBool("json", false);
    } else if (cmd != "validate") {
        return usage();
    }
    args.rejectUnread("pvsim " + cmd);

    std::vector<std::string> files;
    try {
        files = expandPaths(paths);
    } catch (const std::exception &e) {
        std::cerr << "pvsim: " << e.what() << "\n";
        return 2;
    }

    if (cmd == "run")
        return cmdRun(files, max_cores, json_out);
    if (cmd == "validate")
        return cmdValidate(files);
    return cmdFingerprint(files, as_json);
}
