/**
 * @file
 * Explores the PV design space the paper discusses but does not
 * fully evaluate (Sections 2.2-2.4): PVCache size sensitivity,
 * the virtualization-aware "drop dirty PV lines on-chip" option,
 * and runtime-selectable table size — all on one workload, printing
 * a compact trade-off table.
 *
 * Usage: pv_table_explorer [--workload=db2] [--refs=400000]
 */

#include <iostream>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "util/args.hh"

using namespace pvsim;

namespace {

struct Row {
    std::string name;
    SystemConfig cfg;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    std::string workload = args.getString("workload", "db2");
    uint64_t warmup = args.getUint("warmup", 200'000);
    uint64_t refs = args.getUint("refs", 400'000);
    args.rejectUnread();

    SystemConfig pv;
    pv.workload = workload;
    pv.prefetch = PrefetchMode::SmsVirtualized;
    pv.phtGeometry = {1024, 11};

    std::vector<Row> rows;
    // 1) PVCache size sweep (paper Section 4.3: 8 is enough).
    for (unsigned entries : {4u, 8u, 16u, 32u}) {
        Row r{"PVCache-" + std::to_string(entries), pv};
        r.cfg.pvCacheEntries = entries;
        rows.push_back(r);
    }
    // 2) On-chip-only PV: drop dirty PV victims at the L2 (paper
    //    Section 2.2 design option; trades accuracy for zero
    //    off-chip PV traffic).
    {
        Row r{"PV8+drop-offchip", pv};
        r.cfg.pvCacheEntries = 8;
        r.cfg.dropPvWritebacks = true;
        rows.push_back(r);
    }
    // 3) Runtime-configurable table size (paper Section 2.3): the
    //    same reserved region hosting a smaller table.
    for (unsigned sets : {256u, 512u}) {
        Row r{"PV8@" + std::to_string(sets) + "sets", pv};
        r.cfg.pvCacheEntries = 8;
        r.cfg.phtGeometry = {sets, 11};
        rows.push_back(r);
    }

    std::cout << "PV design-space exploration on '" << workload
              << "'\n\n";

    TextTable t;
    t.setColumns({"design", "covered", "overpred", "L2 req (PV)",
                  "PV off-chip bytes", "PV drops@L2"});
    for (const Row &row : rows) {
        SystemConfig cfg = row.cfg;
        cfg.mode = SimMode::Functional;
        System sys(cfg);
        sys.runFunctional(warmup);
        sys.resetStats();
        sys.runFunctional(refs);

        CoverageMetrics cov = coverageOf(sys);
        uint64_t pv_req = sys.l2().requestsPv.value();
        uint64_t pv_bytes =
            (sys.dram().readsPv.value() +
             sys.dram().writesPv.value()) *
            kBlockBytes;
        t.addRow({row.name, fmtPct(cov.coveredPct()),
                  fmtPct(cov.overpredictionPct()), fmtCount(pv_req),
                  fmtBytes(double(pv_bytes)),
                  fmtCount(sys.l2().pvWritebacksDropped.value())});
    }
    t.print(std::cout);

    std::cout
        << "\nObservations to compare with the paper: coverage is "
           "flat beyond 8 PVCache entries (Section 4.3); dropping "
           "dirty PV lines on-chip eliminates off-chip PV traffic "
           "at a small coverage cost (Section 2.2); the table size "
           "can shrink at runtime without touching the engine "
           "(Section 2.3).\n";
    return 0;
}
