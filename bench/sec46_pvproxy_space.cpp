/**
 * @file
 * Reproduces paper Section 4.6: the PVProxy space requirements,
 * itemized (PVCache data, tags, dirty bits, MSHRs, evict buffer,
 * pattern buffer) against the paper's numbers, plus the headline
 * reduction factor vs the dedicated 59.125 KB table.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/virt_pht.hh"

using namespace pvsim;
using namespace pvsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opt = BenchOptions::parse(argc, argv);

    // Paper design: a 1K-11a PHT, the proxy's only tenant, behind
    // the default 8-entry PVCache.
    SimContext ctx(SimMode::Functional);
    PvProxy proxy(ctx, PvProxyParams{}, 0xB0000000, 1024 * kBlockBytes);
    VirtualizedPht vpht(proxy, "pht", 1024, 11);
    auto b = proxy.storageBreakdown();

    std::cout << "Section 4.6: PVProxy space requirements per "
                 "core\n\n";

    TextTable t;
    t.setColumns({"component", "this model", "paper"});
    t.addRow({"PVCache data (8 x 473b)",
              fmtBytes(b.pvCacheData / 8.0), "473B"});
    t.addRow({"PVCache tags", fmtBytes(b.tags / 8.0), "11B"});
    t.addRow({"dirty bits", fmtBytes(b.dirtyBits / 8.0), "1B"});
    t.addRow({"MSHRs (4)", fmtBytes(b.mshrs / 8.0), "84B"});
    t.addRow({"evict buffer (4 x 64B)",
              fmtBytes(b.evictBuffer / 8.0), "256B"});
    t.addRow({"pattern buffer (16 x 32b)",
              fmtBytes(b.patternBuffer / 8.0), "64B"});
    t.addRow({"total", fmtBytes(b.totalBytes()), "889B"});
    emit(t, opt);

    double dedicated = PhtGeometry{1024, 11}.storageBits() / 8.0;
    std::cout << "Dedicated 1K-11a PHT: " << fmtBytes(dedicated)
              << " per core (paper: 59.125KB)\n"
              << "Reduction factor: "
              << fmtDouble(dedicated / b.totalBytes(), 1)
              << "x (paper: 68x)\n"
              << "In-memory PVTable: "
              << fmtBytes(double(vpht.tableBytes()))
              << " per core (paper: 64KB)\n";
    return 0;
}
