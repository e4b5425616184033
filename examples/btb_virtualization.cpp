/**
 * @file
 * Generality demo (paper Section 6 future work): virtualize a
 * branch target buffer with the same PV framework used for the SMS
 * PHT — and run both *concurrently* as tenants of one per-core
 * PVProxy inside a fully wired System. The cores reconstruct taken
 * branches from their trace streams and drive BTB lookups/updates
 * through the shared proxy, while SMS drives the PHT tenant; the
 * proxy reports per-engine statistics for both.
 *
 * With --penalty > 0 the demo finishes with the timing-mode half
 * of the story: a matched-pair run (identical seeds) of a
 * dedicated-SRAM BTB against the virtualized one, showing what BTB
 * virtualization costs in IPC when mispredicts stall the front end.
 *
 * Usage: btb_virtualization [--workload=apache] [--refs=300000]
 *                           [--btb-sets=2048] [--penalty=8]
 */

#include <algorithm>
#include <iostream>

#include "config/scenario.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "util/args.hh"

using namespace pvsim;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    std::string workload = args.getString("workload", "apache");
    uint64_t refs = args.getUint("refs", 300'000);
    unsigned btb_sets = unsigned(args.getUint("btb-sets", 2048));
    Cycles penalty = args.getUint("penalty", 8);
    args.rejectUnread();

    // The paper's machine with SMS-PV prefetching, plus a BTB
    // tenant on every core's proxy.
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.prefetch = PrefetchMode::SmsVirtualized;
    cfg.phtGeometry = {1024, 11};
    VirtEngineConfig btb;
    btb.kind = VirtEngineKind::Btb;
    btb.numSets = btb_sets;
    cfg.virtEngines.push_back(btb);
    // Room for both tenants' segments: 64 KB PHT + BTB table.
    cfg.pvBytesPerCore =
        (1024ull + btb_sets) * kBlockBytes + 64 * 1024;

    std::cout << "btb_virtualization: workload '" << workload
              << "', " << refs << " references per core, BTB "
              << btb_sets << " sets x 8 ways in memory\n\n";

    System sys(cfg);
    sys.runFunctional(refs);

    TextTable t("Two tenants, one PVProxy per core (" + workload +
                ")");
    t.setColumns({"core", "engine", "segment", "ops", "pvcache hit",
                  "drops", "writebacks"});
    for (int c = 0; c < sys.numCores(); ++c) {
        for (const auto &e : sys.engines(c)) {
            PvProxy::EngineStats &es = e->engineStats();
            uint64_t lookups = es.hits.value() + es.misses.value();
            double hit_pct =
                lookups ? 100.0 * double(es.hits.value()) /
                              double(lookups)
                        : 0.0;
            t.addRow({"core" + std::to_string(c), e->engineName(),
                      fmtBytes(double(e->tableBytes())),
                      std::to_string(es.operations.value()),
                      fmtPct(hit_pct),
                      std::to_string(es.drops.value()),
                      std::to_string(es.writebacks.value())});
        }
    }
    t.print(std::cout);

    // Branch-prediction quality through the virtualized BTB.
    uint64_t branches = 0, hits = 0;
    for (int c = 0; c < sys.numCores(); ++c) {
        branches += sys.core(c).takenBranches.value();
        hits += sys.core(c).btbHits.value();
    }
    std::cout << "\nTaken branches reconstructed: " << branches
              << ", targets predicted by the virtualized BTB: "
              << hits << " ("
              << fmtPct(branches ? 100.0 * double(hits) /
                                       double(branches)
                                 : 0.0)
              << ")\n";
    std::cout << "(Predictability tracks the workload: synthetic "
                 "streams interleave independent access streams at "
                 "random, so branch-heavy mixes cap the achievable "
                 "hit rate; try --workload=qry1 for a "
                 "loop-dominated stream.)\n";

    PvProxy &proxy = *sys.pvProxy(0);
    std::cout << "\nDedicated storage for core0's proxy (all "
              << proxy.numEngines() << " tenants): "
              << fmtBytes(proxy.storageBreakdown().totalBytes())
              << " vs " << fmtBytes(double(proxy.region().bytesUsed()))
              << " of PVTables living in the memory hierarchy.\n";
    std::cout << "The same VirtEngine framework serves the PHT and "
                 "the BTB through one shared proxy — the paper's "
                 "\"general framework\" claim (Sections 5-6).\n";

    if (penalty > 0) {
        Scenario s;
        s.name = "btb-demo";
        s.kind = "fig9";
        s.warmupRecords = 2'000;
        s.measureRecords = 10'000;
        s.batches = 2;
        s.system.numCores = 2;
        // Keep the demo quick: cap the pair's geometry.
        s.system.btb.numSets = std::min(btb_sets, 512u);
        s.system.btbMispredictPenalty = penalty;
        std::cout << "\nTiming mode: what does virtualizing a "
                  << s.system.btb.numSets << "-set BTB cost in IPC at a "
                  << penalty
                  << "-cycle redirect? (2-core matched pair, same "
                     "seeds; the full sweep is `pvsim run "
                     "scenarios/bench/fig9/`)\n";
        // Single-preset mini-mix; borrow the "web" branch profile
        // so the demo runs on learnable successor edges.
        s.fig9.mixes = {{workload, {workload}, presetMixes()[0].branch}};
        const Row r = scenarioRows(s).at(0);
        std::cout << "  dedicated SRAM BTB : IPC "
                  << fmtDouble(r.value("dedicated_ipc"), 4)
                  << "\n  virtualized BTB    : IPC "
                  << fmtDouble(r.value("virtualized_ipc"), 4) << "  ("
                  << fmtDouble(r.value("speedup_pct"), 2)
                  << "% vs dedicated)\n"
                  << "Predictions a PV fill cannot deliver by fetch "
                     "time charge the same redirect as wrong ones — "
                     "the latency cost the paper flags for "
                     "latency-critical predictors (Section 6).\n";
    }
    return 0;
}
