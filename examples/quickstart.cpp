/**
 * @file
 * Quickstart: build the paper's quad-core machine, run one workload
 * with the original SMS prefetcher and with the virtualized (PV)
 * design, and compare coverage, traffic, and dedicated storage.
 *
 * Usage:
 *   quickstart [--scenario=FILE] [--workload=oracle]
 *              [--refs=2000000] [--warmup=1000000]
 *              [--stats=<prefix>]
 *
 * The virtualized machine comes from a scenario file when one is
 * given — or from scenarios/quickstart.json when that is found next
 * to the working directory — and is hand-built from code otherwise;
 * the dedicated-SMS and no-prefetch comparison points are derived
 * from it. With --stats, the full gem5-style statistics of each run
 * are written to "<prefix>.<config>.stats".
 */

#include <fstream>
#include <iostream>

#include "config/scenario.hh"
#include "harness/config_presets.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "util/args.hh"

using namespace pvsim;

namespace {

struct RunResult {
    CoverageMetrics coverage;
    TrafficMetrics traffic;
    uint64_t storageBits = 0;
};

RunResult
run(SystemConfig cfg, uint64_t warmup, uint64_t refs,
    const std::string &stats_file)
{
    System sys(cfg);
    sys.runFunctional(warmup);
    sys.resetStats();
    sys.runFunctional(refs);

    RunResult r;
    r.coverage = coverageOf(sys);
    r.traffic = trafficOf(sys);
    if (cfg.prefetch == PrefetchMode::SmsDedicated ||
        cfg.prefetch == PrefetchMode::SmsVirtualized) {
        r.storageBits = sys.pht(0)->storageBits();
    }
    if (!stats_file.empty()) {
        std::ofstream os(stats_file + "." + cfg.label() + ".stats");
        sys.ctx().dumpStats(os);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    std::string stats_file = args.getString("stats", "");
    uint64_t refs = args.getUint("refs", 2'000'000);
    uint64_t warmup = args.getUint("warmup", 1'000'000);

    // The virtualized machine, from a scenario file when available.
    std::string scenario_file = args.getString("scenario", "");
    const std::string workload_flag = args.getString("workload", "");
    args.rejectUnread();
    if (scenario_file.empty()) {
        for (const char *p : {"scenarios/quickstart.json",
                              "../scenarios/quickstart.json"}) {
            if (std::ifstream(p).good()) {
                scenario_file = p;
                break;
            }
        }
    }
    SystemConfig pv;
    if (!scenario_file.empty()) {
        Scenario s;
        try {
            s = loadScenarioFile(scenario_file);
        } catch (const std::exception &e) {
            std::cerr << "quickstart: " << e.what() << "\n";
            return 2;
        }
        pv = s.system;
        warmup = args.getUint("warmup", s.warmupRefs);
        refs = args.getUint("refs", s.measureRefs);
        std::cout << "pvsim quickstart: config from " << scenario_file
                  << " (fingerprint "
                  << config::fingerprintHex(scenarioFingerprint(s))
                  << ")\n";
    } else {
        pv = pvConfig("oracle", 8);
    }
    if (!workload_flag.empty())
        pv.workload = workload_flag;
    const std::string workload = pv.workload;

    std::cout << "pvsim quickstart: workload '" << workload << "', "
              << warmup << " warmup + " << refs
              << " measured references per core\n\n";

    // The comparison points derive from the same machine: dedicated
    // SRAM of the matching geometry, and no prefetcher at all.
    SystemConfig base = pv;
    base.prefetch = PrefetchMode::None;

    SystemConfig sms = pv;
    sms.prefetch = PrefetchMode::SmsDedicated;

    RunResult r_base = run(base, warmup, refs, stats_file);
    RunResult r_sms = run(sms, warmup, refs, stats_file);
    RunResult r_pv = run(pv, warmup, refs, stats_file);

    TextTable t("Original SMS vs. virtualized SMS (" + workload +
                ")");
    t.setColumns({"config", "covered", "overpred", "L2 req increase",
                  "off-chip increase", "dedicated storage"});
    t.addRow({"baseline", "-", "-", "-", "-", "-"});
    t.addRow({"SMS-1K-11a", fmtPct(r_sms.coverage.coveredPct()),
              fmtPct(r_sms.coverage.overpredictionPct()),
              fmtPct(pctIncrease(r_base.traffic.l2Requests,
                                 r_sms.traffic.l2Requests)),
              fmtPct(pctIncrease(r_base.traffic.offChipBytes(),
                                 r_sms.traffic.offChipBytes())),
              fmtBytes(double(r_sms.storageBits) / 8.0)});
    t.addRow({"SMS-PV8", fmtPct(r_pv.coverage.coveredPct()),
              fmtPct(r_pv.coverage.overpredictionPct()),
              fmtPct(pctIncrease(r_sms.traffic.l2Requests,
                                 r_pv.traffic.l2Requests)),
              fmtPct(pctIncrease(r_sms.traffic.offChipBytes(),
                                 r_pv.traffic.offChipBytes())),
              fmtBytes(double(r_pv.storageBits) / 8.0)});
    t.print(std::cout);

    std::cout << "\nSMS-PV8 rows compare against SMS-1K-11a (the "
                 "paper's comparison);\nSMS-1K-11a rows compare "
                 "against the no-prefetch baseline.\n";
    std::cout << "\nDedicated storage shrinks by "
              << fmtDouble(double(r_sms.storageBits) /
                               double(r_pv.storageBits),
                           1)
              << "x while coverage stays within "
              << fmtDouble(r_sms.coverage.coveredPct() -
                               r_pv.coverage.coveredPct(),
                           2)
              << " points of the dedicated design.\n";

    // ---- Multi-tenancy: add a BTB tenant to the same proxy --------
    SystemConfig multi = pv;
    VirtEngineConfig btb;
    btb.kind = VirtEngineKind::Btb;
    multi.virtEngines.push_back(btb);
    multi.pvBytesPerCore = 256 * 1024; // PHT + BTB segments

    System msys(multi);
    msys.runFunctional(refs);
    std::cout << "\nWith a virtualized BTB sharing each core's "
                 "PVProxy (engine registry):\n";
    for (const auto &e : msys.engines(0)) {
        PvProxy::EngineStats &es = e->engineStats();
        std::cout << "  core0." << e->engineName() << ": "
                  << es.operations.value() << " ops, "
                  << es.drops.value() << " drops, segment "
                  << fmtBytes(double(e->tableBytes()))
                  << " in memory\n";
    }
    return 0;
}
