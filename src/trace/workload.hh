/**
 * @file
 * Workload parameterization. The paper evaluates on eight commercial
 * workloads (Table 2) that are not publicly redistributable; this
 * reproduction substitutes synthetic generators whose parameters
 * expose exactly the axes that drive SMS and PV behaviour:
 *
 *  - trigger-key diversity (distinct PC+offset combinations) and its
 *    popularity skew -> PHT capacity sensitivity (Figures 4/5);
 *  - spatial-pattern density and stability -> coverage ceiling and
 *    overprediction rate;
 *  - scan vs. transactional vs. irregular access mix -> which
 *    fraction of misses is coverable at all;
 *  - data/code footprints -> L1/L2 pressure and off-chip traffic
 *    (Figures 7/8/10);
 *  - store fraction and cross-core sharing -> writebacks and
 *    invalidations.
 *
 * Presets named after the paper's workloads are tuned so each one's
 * coverage-vs-table-size curve matches the paper's qualitative
 * behaviour (tuning notes in workload_presets.cc).
 */

#ifndef PVSIM_TRACE_WORKLOAD_HH
#define PVSIM_TRACE_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pvsim {

/**
 * Shape of the synthetic CFG the control-flow layer walks
 * (trace/program_structure.hh). Shared verbatim between
 * WorkloadParams (per-generator) and BranchProfile (per-mix), so a
 * knob exists in exactly one place.
 */
struct BranchKnobs {
    /** Mean memory records per basic block. */
    unsigned bbMeanRecords = 4;
    /** Basic blocks per routine (last block is the return). */
    unsigned routineBlocks = 12;
    /** Distinct routines in the synthetic CFG. */
    unsigned numRoutines = 96;
    /** Bounded call-stack depth (calls beyond it are elided). */
    unsigned callDepth = 8;
    /** Probability a non-terminal block ends in a call. */
    double callFraction = 0.15;
    /** Probability a non-terminal block is a loop tail. */
    double loopFraction = 0.25;
    /** Mean back-edges taken per loop activation. */
    unsigned loopTripMean = 4;
    /** Probability a taken edge follows its canonical successor. */
    double edgeStability = 0.95;
};

/** Tunable description of one synthetic workload. */
struct WorkloadParams {
    std::string name = "custom";
    uint64_t seed = 1;

    // ---- Footprints -------------------------------------------------
    /** Distinct spatial regions (32 blocks = 2 KB each) per core. */
    uint64_t dataRegions = 16384;
    /** Code footprint in 64-byte blocks per core. */
    uint64_t codeBlocks = 4096;
    /** Irregular (pattern-free) footprint in 64-byte blocks. */
    uint64_t irregularBlocks = 1 << 18;

    // ---- Trigger keys (PHT pressure) --------------------------------
    /** Distinct PCs that trigger spatial generations. */
    unsigned numTriggerPcs = 512;
    /** Distinct trigger offsets per PC (keys = PCs * offsets). */
    unsigned offsetsPerPc = 4;
    /** Zipf skew of key popularity (0 = uniform = worst case). */
    double keyZipfAlpha = 0.6;
    /** Zipf skew of region popularity. */
    double regionZipfAlpha = 0.4;

    // ---- Pattern behaviour ------------------------------------------
    /** Probability a generation follows its key's canonical pattern. */
    double patternStability = 0.85;
    /** Per-bit flip probability applied to each generation. */
    double patternNoise = 0.04;
    /** Mean fraction of the 32 region blocks touched per generation. */
    double patternDensity = 0.30;

    // ---- Access mix --------------------------------------------------
    /** Fraction of references from sequential scans (dense, few keys). */
    double scanFraction = 0.0;
    /** Number of concurrent scan streams (when scanFraction > 0). */
    unsigned scanStreams = 4;
    /** Fraction of references that are isolated irregular accesses. */
    double irregularFraction = 0.25;
    /** Fraction of references that are stores. */
    double storeFraction = 0.20;
    /** Probability a structured region comes from the shared pool. */
    double sharedFraction = 0.05;

    // ---- Rate ---------------------------------------------------------
    /** Mean non-memory instructions between memory references. */
    double gapMean = 5.0;
    /** Concurrent in-flight structured region visits. */
    unsigned concurrency = 8;

    // ---- Program structure (control-flow modeling) --------------------
    /**
     * Enable the control-flow layer (trace/program_structure.hh):
     * pc/gap come from a walk over a synthetic CFG with learnable
     * taken-branch successor edges instead of the flat per-record
     * interleaving. Off (the default) reproduces the historical
     * stream bit-for-bit; on, the (addr, op) stream is still
     * identical — only pc/gap/edge change.
     */
    bool branchModel = false;
    /** CFG shape when branchModel is on (see BranchKnobs). */
    struct BranchKnobs branch;
};

/**
 * Named preset matching one of the paper's Table 2 workloads
 * ("apache", "zeus", "db2", "oracle", "qry1", "qry2", "qry16",
 * "qry17"), plus "uniform" (a featureless random-access control used
 * by tests).
 */
WorkloadParams workloadPreset(const std::string &name);

/** The eight paper workloads, in the paper's presentation order. */
std::vector<std::string> paperWorkloads();

/** True when workloadPreset(name) knows `name`. */
bool isWorkloadPreset(const std::string &name);

/**
 * Mix-level control-flow profile: the branch-structure knobs a
 * multi-programmed mix applies to every member workload. Presets
 * keep `branchModel` off (the fig4/fig5 data-side curves are tuned
 * against the flat streams); the mixes — the unit the BTB/Figure 9
 * experiments run on — switch it on here, so branch learnability is
 * a property of the *experiment*, not of the preset.
 */
struct BranchProfile : BranchKnobs {
    bool enabled = false;

    /** Install the knobs on p (no-op when !enabled). */
    void applyTo(WorkloadParams &p) const;
};

/**
 * A named multi-programmed mix: one preset per core (wrapped when
 * the machine has more cores than entries), plus the control-flow
 * profile its members run under. Feeds SystemConfig::workloadMix.
 */
struct WorkloadMix {
    std::string name;
    std::vector<std::string> workloads;
    BranchProfile branch;
};

/**
 * The standard mixes the Figure 9-style sweeps run: the paper's
 * workload classes paired homogeneously (web, oltp, dss) and
 * cross-class (mixed), so shared-L2 contention between
 * heterogeneous PV tenants is part of the measurement.
 */
std::vector<WorkloadMix> presetMixes();

/** One-line description of a preset (Table 2 reproduction). */
std::string workloadDescription(const std::string &name);

} // namespace pvsim

#endif // PVSIM_TRACE_WORKLOAD_HH
