#include "trace/workload.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pvsim {

/*
 * Preset tuning notes:
 *
 * The paper's observed behaviour per workload drives the knobs:
 *  - Oracle's coverage collapses 44% -> <4% when the PHT shrinks to
 *    8 sets: a large, flat trigger-key population (keyZipfAlpha low,
 *    many keys) that no small table can hold.
 *  - TPC-H Qry1 is scan-dominated (73% coverage, mildly sensitive):
 *    most references come from a handful of streaming keys.
 *  - Apache/Zeus sit in between; small dedicated tables are
 *    "entirely inefficient" for Apache (Figure 9).
 *  - Zeus shows the largest writeback increase (3.2%) -> highest
 *    store fraction of the web/OLTP group.
 *  - DB2/Oracle (TPC-C) have the largest code and data footprints.
 */

WorkloadParams
workloadPreset(const std::string &name)
{
    WorkloadParams p;
    p.name = name;

    if (name == "apache") {
        p.seed = 0xA9AC4E;
        p.dataRegions = 16384;      // 32 MB/core
        p.codeBlocks = 6144;        // 384 KB code
        p.numTriggerPcs = 640;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.45;
        p.regionZipfAlpha = 0.40;
        p.patternStability = 0.82;
        p.patternNoise = 0.05;
        p.patternDensity = 0.30;
        p.scanFraction = 0.05;
        p.irregularFraction = 0.30;
        p.storeFraction = 0.18;
        p.sharedFraction = 0.08;
    } else if (name == "zeus") {
        p.seed = 0x2E05;
        p.dataRegions = 16384;
        p.codeBlocks = 5120;
        p.numTriggerPcs = 512;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.50;
        p.regionZipfAlpha = 0.40;
        p.patternStability = 0.80;
        p.patternNoise = 0.07;
        p.patternDensity = 0.28;
        p.scanFraction = 0.03;
        p.irregularFraction = 0.34;
        p.storeFraction = 0.30;
        p.sharedFraction = 0.08;
    } else if (name == "db2") {
        p.seed = 0xDB2;
        p.dataRegions = 24576;      // 48 MB/core
        p.codeBlocks = 8192;        // 512 KB code (OLTP I-stream)
        p.numTriggerPcs = 320;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.70;
        p.regionZipfAlpha = 0.45;
        p.patternStability = 0.85;
        p.patternNoise = 0.05;
        p.patternDensity = 0.32;
        p.scanFraction = 0.05;
        p.irregularFraction = 0.34;
        p.storeFraction = 0.22;
        p.sharedFraction = 0.12;
    } else if (name == "oracle") {
        p.seed = 0x04AC1E;
        p.dataRegions = 24576;
        p.codeBlocks = 8192;
        p.numTriggerPcs = 1536;     // many distinct triggers...
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.18;      // ...with nearly flat popularity
        p.regionZipfAlpha = 0.40;
        p.patternStability = 0.85;
        p.patternNoise = 0.05;
        p.patternDensity = 0.30;
        p.scanFraction = 0.03;
        p.irregularFraction = 0.32;
        p.storeFraction = 0.25;
        p.sharedFraction = 0.12;
    } else if (name == "qry1") {
        p.seed = 0x461;
        p.dataRegions = 32768;      // 64 MB scanned
        p.codeBlocks = 1024;
        p.numTriggerPcs = 64;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.60;
        p.regionZipfAlpha = 0.40;
        p.patternStability = 0.90;
        p.patternNoise = 0.03;
        p.patternDensity = 0.35;
        p.scanFraction = 0.70;      // scan-dominated (Table 2)
        p.scanStreams = 4;
        p.irregularFraction = 0.15;
        p.storeFraction = 0.05;
        p.sharedFraction = 0.00;
    } else if (name == "qry2") {
        p.seed = 0x462;
        p.dataRegions = 4096;       // 8 MB; completes quickly
        p.codeBlocks = 1536;
        p.numTriggerPcs = 192;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.55;
        p.regionZipfAlpha = 0.50;
        p.patternStability = 0.80;
        p.patternNoise = 0.06;
        p.patternDensity = 0.25;
        p.scanFraction = 0.10;      // join-dominated (Table 2)
        p.irregularFraction = 0.40;
        p.storeFraction = 0.08;
        p.sharedFraction = 0.02;
    } else if (name == "qry16") {
        p.seed = 0x4616;
        p.dataRegions = 8192;
        p.codeBlocks = 2048;
        p.numTriggerPcs = 256;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.50;
        p.regionZipfAlpha = 0.45;
        p.patternStability = 0.85;
        p.patternNoise = 0.05;
        p.patternDensity = 0.30;
        p.scanFraction = 0.15;      // join-dominated (Table 2)
        p.irregularFraction = 0.28;
        p.storeFraction = 0.10;
        p.sharedFraction = 0.02;
    } else if (name == "qry17") {
        p.seed = 0x4617;
        p.dataRegions = 16384;
        p.codeBlocks = 2048;
        p.numTriggerPcs = 384;
        p.offsetsPerPc = 4;
        p.keyZipfAlpha = 0.40;
        p.regionZipfAlpha = 0.45;
        p.patternStability = 0.85;
        p.patternNoise = 0.05;
        p.patternDensity = 0.32;
        p.scanFraction = 0.35;      // balanced scan-join (Table 2)
        p.irregularFraction = 0.18;
        p.storeFraction = 0.10;
        p.sharedFraction = 0.02;
    } else if (name == "uniform") {
        // Featureless control used by unit tests: pure irregular
        // traffic, no spatial correlation for SMS to learn.
        p.seed = 0x0;
        p.dataRegions = 1024;
        p.codeBlocks = 256;
        p.numTriggerPcs = 16;
        p.offsetsPerPc = 1;
        p.irregularFraction = 1.0;
        p.scanFraction = 0.0;
    } else {
        fatal("unknown workload preset '%s'", name.c_str());
    }
    return p;
}

std::vector<std::string>
paperWorkloads()
{
    return {"apache", "zeus", "db2", "oracle",
            "qry1",   "qry2", "qry16", "qry17"};
}

bool
isWorkloadPreset(const std::string &name)
{
    const std::vector<std::string> paper = paperWorkloads();
    return name == "uniform" ||
           std::find(paper.begin(), paper.end(), name) != paper.end();
}

void
BranchProfile::applyTo(WorkloadParams &p) const
{
    if (!enabled)
        return;
    p.branchModel = true;
    p.branch = *this; // slices to the shared BranchKnobs
}

std::vector<WorkloadMix>
presetMixes()
{
    /*
     * Mix-level branch profiles, tuned to the class of code each mix
     * models (single presets keep the flat streams — the fig4/fig5
     * data-side curves are regression-guarded bit-for-bit):
     *  - web: dispatch-heavy short handlers, deep call chains, high
     *    stability (request processing is repetitive);
     *  - oltp: the paper's large-I-stream class — more routines than
     *    a PVCache can front, medium stability;
     *  - dss: loop-dominated scan kernels with long trip counts and
     *    very high stability (fewer, longer blocks);
     *  - mixed: the cross-class blend the QoS experiments run —
     *    branchiest of the four (a taken branch every few records),
     *    with enough routines to thrash the PVCache; this is the
     *    profile where the dedicated-vs-virtualized availability
     *    gap is widest.
     */
    BranchProfile web;
    web.enabled = true;
    web.bbMeanRecords = 2;
    web.routineBlocks = 8;
    web.numRoutines = 192;
    web.callDepth = 12;
    web.callFraction = 0.30;
    web.loopFraction = 0.10;
    web.loopTripMean = 3;
    web.edgeStability = 0.95;

    BranchProfile oltp;
    oltp.enabled = true;
    oltp.bbMeanRecords = 2;
    oltp.routineBlocks = 12;
    oltp.numRoutines = 384;
    oltp.callDepth = 10;
    oltp.callFraction = 0.20;
    oltp.loopFraction = 0.20;
    oltp.loopTripMean = 4;
    oltp.edgeStability = 0.90;

    BranchProfile dss;
    dss.enabled = true;
    dss.bbMeanRecords = 4;
    dss.routineBlocks = 10;
    dss.numRoutines = 96;
    dss.callDepth = 6;
    dss.callFraction = 0.08;
    dss.loopFraction = 0.40;
    dss.loopTripMean = 8;
    dss.edgeStability = 0.97;

    BranchProfile mixed;
    mixed.enabled = true;
    mixed.bbMeanRecords = 1;
    mixed.routineBlocks = 8;
    mixed.numRoutines = 384;
    mixed.callDepth = 16;
    mixed.callFraction = 0.35;
    mixed.loopFraction = 0.10;
    mixed.loopTripMean = 2;
    mixed.edgeStability = 0.93;

    return {
        {"web", {"apache", "zeus"}, web},
        {"oltp", {"db2", "oracle"}, oltp},
        {"dss", {"qry1", "qry2", "qry16", "qry17"}, dss},
        {"mixed", {"apache", "oracle", "qry2", "zeus"}, mixed},
    };
}

std::string
workloadDescription(const std::string &name)
{
    if (name == "apache")
        return "SPECweb99, Apache HTTP Server 2.0, 16K connections "
               "(synthetic equivalent)";
    if (name == "zeus")
        return "SPECweb99, Zeus Web Server 4.3, 16K connections "
               "(synthetic equivalent)";
    if (name == "db2")
        return "TPC-C 100 warehouses on IBM DB2 v8 ESE, 64 clients "
               "(synthetic equivalent)";
    if (name == "oracle")
        return "TPC-C 100 warehouses on Oracle 10g, 16 clients "
               "(synthetic equivalent)";
    if (name == "qry1")
        return "TPC-H Query 1 on DB2, scan-dominated (synthetic "
               "equivalent)";
    if (name == "qry2")
        return "TPC-H Query 2 on DB2, join-dominated (synthetic "
               "equivalent)";
    if (name == "qry16")
        return "TPC-H Query 16 on DB2, join-dominated (synthetic "
               "equivalent)";
    if (name == "qry17")
        return "TPC-H Query 17 on DB2, balanced scan-join "
               "(synthetic equivalent)";
    if (name == "uniform")
        return "uniform random control workload (tests only)";
    return "unknown";
}

} // namespace pvsim
