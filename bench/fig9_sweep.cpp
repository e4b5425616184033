/**
 * @file
 * Figure 9-style experiment for BTB virtualization: matched-pair
 * IPC of a dedicated-SRAM BTB vs the same-geometry virtualized BTB
 * (timing mode, btbMispredictPenalty > 0) across the standard
 * multi-programmed preset mixes, under the program-structure branch
 * model (learnable successor edges) — optionally swept over the
 * edge-stability knob, which walks both BTBs' hit rate from
 * near-perfect to coin-flip. This is the first end-to-end path from
 * a virtualized structure to a paper-figure IPC number — the
 * original Figure 9 virtualizes the SMS PHT; this sweep applies the
 * identical methodology to the paper's Section 6 BTB suggestion.
 *
 * Emits a BENCH_fig9.json summary (stdout table + file) so
 * successive PRs can compare trajectories.
 *
 * The prefetch section runs the PVCache locality-prefetch off-vs-on
 * matched pair (fig9PrefetchCompare): the virtualized side of the
 * "mixed" preset with identical seeds, prefetch disabled vs
 * --pv-prefetch/--victim-entries (defaulting to depth 2 / 8 victim
 * entries when left 0), reporting the availability-redirect
 * reduction the speculative fills buy. check_bench.py gates the
 * emitted "prefetch" object: on must land strictly below off.
 *
 *   fig9_sweep [--penalty N] [--btb-sets N] [--batches N]
 *              [--warmup-records N] [--measure-records N]
 *              [--cores N] [--edge-stability default,0.8,...]
 *              [--pv-prefetch N] [--victim-entries N]
 *              [--skip-prefetch]
 *              [--json-out FILE] [--csv] [--smoke]
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hh"
#include "config/scenario.hh"
#include "harness/metrics.hh"
#include "harness/row_json.hh"
#include "harness/table.hh"
#include "util/args.hh"

using namespace pvsim;
using namespace pvsim::bench;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const bool csv = args.getBool("csv", false);

    // --scenario FILE: take every sweep option from a scenario file
    // (kind "fig9") instead of the flags below.
    const std::string scenario_file = args.getString("scenario", "");

    Fig9Options opt;
    if (!scenario_file.empty()) {
        Scenario s;
        try {
            s = loadScenarioFile(scenario_file);
        } catch (const std::exception &e) {
            std::cerr << "fig9_sweep: " << e.what() << "\n";
            return 2;
        }
        if (s.kind != "fig9") {
            std::cerr << "fig9_sweep: " << scenario_file
                      << " has kind \"" << s.kind
                      << "\", want \"fig9\"\n";
            return 2;
        }
        opt = s.fig9;
    } else {
        opt.penalty = args.getUint("penalty", 8);
        opt.btbSets =
            unsigned(args.getUint("btb-sets", opt.btbSets));
        opt.numCores = int(args.getUint("cores", 4));
        opt.batches = unsigned(std::max<uint64_t>(
            1, args.getUint("batches", smoke ? 2 : 4)));
        opt.warmupRecords =
            args.getUint("warmup-records", smoke ? 1'000 : 20'000);
        opt.measureRecords =
            args.getUint("measure-records", smoke ? 3'000 : 60'000);
        opt.pvPrefetch = unsigned(
            args.getUint("pv-prefetch", opt.pvPrefetch));
        opt.victimEntries = unsigned(
            args.getUint("victim-entries", opt.victimEntries));
    }
    const bool skip_prefetch = args.getBool("skip-prefetch", false);
    const std::string json_out =
        args.getString("json-out", "BENCH_fig9.json");

    // Edge-stability sweep: "default" (the mix's own profile) plus
    // any numeric overrides in [0, 1]. Smoke runs only the default
    // pass. Malformed values fail loudly instead of aborting. A
    // scenario spells its stabilities directly (validated on load).
    if (scenario_file.empty()) {
        for (const std::string &s : args.getList(
                 "edge-stability",
                 smoke ? std::vector<std::string>{"default"}
                       : std::vector<std::string>{"default", "0.8",
                                                  "0.5"})) {
            if (s == "default") {
                opt.edgeStabilities.push_back(kFig9MixStability);
                continue;
            }
            size_t consumed = 0;
            double v = -1.0;
            try {
                v = std::stod(s, &consumed);
            } catch (const std::exception &) {
            }
            // !(in-range) rather than out-of-range tests: NaN
            // compares false to everything and must be rejected too.
            if (consumed != s.size() || !(v >= 0.0 && v <= 1.0)) {
                std::cerr
                    << "fig9_sweep: bad --edge-stability value '"
                    << s << "' (want \"default\" or a number in "
                    << "[0, 1])\n";
                return 2;
            }
            opt.edgeStabilities.push_back(v);
        }
    }

    // fig9Sweep shards every (stability, mix, side, batch) System
    // as one job (bookkeeping shared with the scenario runner).
    const unsigned jobs_requested = harnessJobs();
    const unsigned jobs_effective = fig9JobsEffective(opt);

    std::cout << "Figure 9 (BTB): dedicated-SRAM vs virtualized BTB "
              << "matched pairs, penalty=" << opt.penalty
              << " cycles, " << opt.btbSets << "x" << opt.btbAssoc
              << " BTB, " << opt.batches << " batches, "
              << opt.edgeStabilities.size()
              << " stability passes, jobs=" << jobs_effective
              << "\n\n";

    std::vector<Fig9Row> rows = fig9Sweep(opt);

    TextTable t;
    t.setColumns({"mix", "stability", "ded IPC", "virt IPC",
                  "ded hit", "virt hit", "speedup", "wall",
                  "rec/s"});
    for (const Fig9Row &r : rows) {
        t.addRow({r.mix, fmtDouble(r.edgeStability, 2),
                  fmtDouble(r.dedicatedIpc, 4),
                  fmtDouble(r.virtualizedIpc, 4),
                  fmtDouble(r.dedicatedHitPct, 1) + "%",
                  fmtDouble(r.virtualizedHitPct, 1) + "%",
                  fmtDouble(r.speedupPct, 2) + "+/-" +
                      fmtDouble(r.ciPct, 2) + "%",
                  fmtWall(r.wallSeconds),
                  fmtRecordsPerSec(r.recordsPerSec())});
    }
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    // ---- PVCache locality prefetch: off-vs-on matched pair --------
    Fig9PrefetchResult pf;
    if (!skip_prefetch) {
        pf = fig9PrefetchCompare(opt);
        std::cout << "\nPVCache locality prefetch (" << pf.mix
                  << ", virtualized BTB, depth=" << pf.depth
                  << ", victim_entries=" << pf.victimEntries
                  << "):\n"
                  << "  off: IPC " << fmtDouble(pf.off.ipc, 4)
                  << ", avail-redir "
                  << fmtDouble(pf.off.availRedirectPct, 2) << "%\n"
                  << "  on : IPC " << fmtDouble(pf.on.ipc, 4)
                  << ", avail-redir "
                  << fmtDouble(pf.on.availRedirectPct, 2)
                  << "%, fills " << pf.on.prefetchFills
                  << ", useful " << pf.on.prefetchUseful
                  << ", drops " << pf.on.prefetchDrops
                  << ", victim hits " << pf.on.victimHits << "\n"
                  << "  protection "
                  << fmtDouble(pf.availImprovementPct, 1)
                  << "% relative, IPC delta "
                  << fmtDouble(pf.ipcDeltaPct, 2) << "%\n";
    }

    std::ostringstream js;
    js << "{\n  \"bench\": \"fig9_sweep\",\n"
       << "  \"penalty_cycles\": " << opt.penalty << ",\n"
       << "  \"btb_sets\": " << opt.btbSets << ",\n"
       << "  \"btb_assoc\": " << opt.btbAssoc << ",\n"
       << "  \"cores\": " << opt.numCores << ",\n"
       << "  \"batches\": " << opt.batches << ",\n"
       << "  \"warmup_records\": " << opt.warmupRecords << ",\n"
       << "  \"measure_records\": " << opt.measureRecords << ",\n"
       << "  \"jobs_requested\": " << jobs_requested << ",\n"
       << "  \"jobs_effective\": " << jobs_effective << ",\n"
       << "  \"pv_prefetch\": " << opt.pvPrefetch << ",\n"
       << "  \"victim_entries\": " << opt.victimEntries << ",\n"
       << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i)
        js << "    " << fig9RowJson(rows[i], jobs_effective)
           << (i + 1 < rows.size() ? "," : "") << "\n";
    js << "  ]";
    if (!skip_prefetch) {
        auto side = [&js](const char *name,
                          const Fig9PrefetchSide &s) {
            js << "    \"" << name << "\": {\"ipc\": " << s.ipc
               << ", \"avail_redirect_pct\": " << s.availRedirectPct
               << ", \"prefetch_fills\": " << s.prefetchFills
               << ", \"prefetch_useful\": " << s.prefetchUseful
               << ", \"prefetch_drops\": " << s.prefetchDrops
               << ", \"victim_hits\": " << s.victimHits
               << ", \"wall_seconds\": " << s.wallSeconds << "}";
        };
        js << ",\n  \"prefetch\": {\n"
           << "    \"mix\": \"" << pf.mix << "\",\n"
           << "    \"depth\": " << pf.depth << ",\n"
           << "    \"victim_entries\": " << pf.victimEntries
           << ",\n";
        side("off", pf.off);
        js << ",\n";
        side("on", pf.on);
        js << ",\n    \"avail_improvement_pct\": "
           << pf.availImprovementPct
           << ",\n    \"ipc_delta_pct\": " << pf.ipcDeltaPct
           << "\n  }";
    }
    js << "\n}\n";

    std::cout << "\n" << js.str();
    std::ofstream out(json_out);
    out << js.str();

    std::cout << "Reading: speedup < 0 means virtualizing the BTB "
                 "costs IPC at this penalty. With learnable branch "
                 "streams the dedicated side converts its hit rate "
                 "into avoided redirects, while the virtualized "
                 "side still pays for predictions not available at "
                 "fetch (PVCache misses waiting on L2 fills) — the "
                 "matched pair shares seeds, so the delta is the "
                 "virtualization cost, not workload noise. Lower "
                 "edge stability drags both hit rates down and "
                 "shrinks the gap.\n";

    // Sanity for CI: every pair must have produced real IPCs, and
    // high-stability passes must show a learnable dedicated BTB —
    // the regression this sweep exists to catch is the hit rate
    // silently collapsing back to the flat-stream few percent.
    for (const Fig9Row &r : rows) {
        if (r.dedicatedIpc <= 0.0 || r.virtualizedIpc <= 0.0) {
            std::cerr << "FAIL: mix " << r.mix
                      << " produced a zero IPC\n";
            return 1;
        }
        if (r.edgeStability >= 0.9 && r.dedicatedHitPct < 60.0) {
            std::cerr << "FAIL: mix " << r.mix << " at stability "
                      << r.edgeStability << " hit only "
                      << r.dedicatedHitPct
                      << "% — the branch stream is no longer "
                         "learnable\n";
            return 1;
        }
    }
    // The prefetch pair must have run for real: both sides with a
    // live IPC, and the on side actually exercising the detector —
    // the gate on the redirect reduction itself lives in
    // check_bench.py where its tolerance is configurable.
    if (!skip_prefetch) {
        if (pf.off.ipc <= 0.0 || pf.on.ipc <= 0.0) {
            std::cerr << "FAIL: prefetch comparison produced a "
                         "zero IPC\n";
            return 1;
        }
        if (pf.on.prefetchFills == 0) {
            std::cerr << "FAIL: prefetch-on run issued no "
                         "speculative fills — the stride detector "
                         "never fired\n";
            return 1;
        }
    }
    return 0;
}
