/**
 * @file
 * Record/replay workflow: capture a synthetic workload to on-disk
 * trace files (one per core), then replay them through a fresh
 * system and verify the replay is byte-identical to the live
 * generator (same misses, same coverage). This is how users plug
 * their own traces into pvsim: write "<dir>/core<i>.pvtrace" in the
 * documented format (trace_io.hh) and set SystemConfig::traceDir.
 *
 * Usage: trace_capture [--workload=qry16] [--records=200000]
 *                      [--dir=/tmp/pvsim_traces] [--keep]
 */

#include <cstdio>
#include <iostream>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "trace/synthetic_gen.hh"
#include "trace/trace_io.hh"
#include "util/args.hh"

using namespace pvsim;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    std::string workload = args.getString("workload", "qry16");
    uint64_t records = args.getUint("records", 200'000);
    std::string dir = args.getString("dir", "/tmp/pvsim_traces");
    bool keep = args.getBool("keep", false);
    int cores = int(args.getInt("cores", 4));
    args.rejectUnread();

    // ---- Capture ------------------------------------------------------
    std::string mkdir = "mkdir -p " + dir;
    if (std::system(mkdir.c_str()) != 0) {
        std::cerr << "cannot create " << dir << "\n";
        return 1;
    }
    WorkloadParams wp = workloadPreset(workload);
    for (int c = 0; c < cores; ++c) {
        SyntheticWorkload gen(wp, c);
        TraceFileWriter writer(dir + "/core" + std::to_string(c) +
                               ".pvtrace");
        TraceRecord rec;
        for (uint64_t i = 0; i < records; ++i) {
            gen.next(rec);
            writer.append(rec);
        }
        writer.close();
    }
    std::cout << "captured " << cores << " x " << records
              << " records of '" << workload << "' into " << dir
              << " (" << (records * kTraceRecordBytes + 16) / 1024
              << " KB per core)\n\n";

    // ---- Replay vs live generation -------------------------------------
    SystemConfig live_cfg;
    live_cfg.workload = workload;
    live_cfg.numCores = cores;
    live_cfg.prefetch = PrefetchMode::SmsDedicated;

    SystemConfig replay_cfg = live_cfg;
    replay_cfg.traceDir = dir;

    System live(live_cfg);
    live.runFunctional(records);
    System replay(replay_cfg);
    replay.runFunctional(records);

    TextTable t("Live generation vs file replay (" + workload + ")");
    t.setColumns({"metric", "live", "replay"});
    auto row = [&](const std::string &name, uint64_t a, uint64_t b) {
        t.addRow({name, fmtCount(a), fmtCount(b)});
        return a == b;
    };
    bool same = true;
    same &= row("records/core", live.core(0).recordsConsumed(),
                replay.core(0).recordsConsumed());
    same &= row("L1D misses (all cores)",
                coverageOf(live).uncovered,
                coverageOf(replay).uncovered);
    same &= row("covered misses", coverageOf(live).covered,
                coverageOf(replay).covered);
    same &= row("L2 requests", trafficOf(live).l2Requests,
                trafficOf(replay).l2Requests);
    t.print(std::cout);

    if (!keep) {
        for (int c = 0; c < cores; ++c)
            std::remove((dir + "/core" + std::to_string(c) +
                         ".pvtrace")
                            .c_str());
    }

    std::cout << (same ? "\nreplay is bit-identical to live "
                         "generation\n"
                       : "\nMISMATCH between live and replay!\n");
    return same ? 0 : 1;
}
