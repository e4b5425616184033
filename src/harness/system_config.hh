/**
 * @file
 * Whole-system configuration: the paper's Table 1 machine (quad-core
 * CMP, private 64 KB L1I/L1D, shared 8 MB 16-way 8-bank L2, 400-cycle
 * DRAM) plus the prefetcher arrangement under study.
 */

#ifndef PVSIM_HARNESS_SYSTEM_CONFIG_HH
#define PVSIM_HARNESS_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/virt_engine.hh"
#include "prefetch/pht.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"
#include "trace/workload.hh"

namespace pvsim {

/** Which data prefetcher each core gets. */
enum class PrefetchMode {
    None,           ///< baseline (paper: "no data prefetching")
    SmsInfinite,    ///< SMS with an unbounded PHT
    SmsDedicated,   ///< SMS with a dedicated set-associative PHT
    SmsVirtualized, ///< SMS with the PV PHT (the paper's design)
    Stride,         ///< classic PC-stride comparator (not in paper)
};

const char *prefetchModeName(PrefetchMode mode);

/** How each core's branch target buffer is provisioned. */
enum class BtbMode {
    None,        ///< no BTB (taken branches cost nothing)
    Dedicated,   ///< conventional on-chip SRAM table
    Virtualized, ///< PV tenant on the core's shared proxy
};

const char *btbModeName(BtbMode mode);

/**
 * BTB arrangement under study. Dedicated and Virtualized share one
 * geometry so flipping the mode yields a capacity-matched pair —
 * the Figure 9-style experiment for BTB virtualization.
 */
struct BtbConfig {
    BtbMode mode = BtbMode::None;
    unsigned numSets = 512;
    unsigned assoc = 8;
    unsigned tagBits = 16;
    /** QoS contract of the virtualized BTB tenant on the shared
     *  per-core proxy (ignored for Dedicated/None). */
    PvTenantQos qos;
};

/** Full configuration of one simulated system. */
struct SystemConfig {
    SimMode mode = SimMode::Functional;
    int numCores = 4;

    // ---- Memory hierarchy (paper Table 1) ----------------------------
    uint64_t l1SizeBytes = 64 * 1024;
    unsigned l1Assoc = 4;
    Cycles l1TagLatency = 1;
    Cycles l1DataLatency = 1; // 2-cycle L1 total
    unsigned l1Mshrs = 16;

    uint64_t l2SizeBytes = 8ull * 1024 * 1024;
    unsigned l2Assoc = 16;
    unsigned l2Banks = 8;
    Cycles l2TagLatency = 6;
    Cycles l2DataLatency = 12;
    unsigned l2Mshrs = 64;

    Cycles memLatency = 400;
    Cycles memServiceInterval = 4;
    uint64_t memBytes = 3ull * 1024 * 1024 * 1024;

    // ---- Cores ---------------------------------------------------------
    unsigned coreWidth = 4;
    unsigned storeBufferEntries = 8;
    /** Next-line instruction prefetcher per core (Table 1). */
    bool nextLineL1I = true;
    /**
     * Front-end stall charged per mispredicted taken branch in
     * timing mode (needs btb.mode != None). 0 — the default —
     * keeps branches free, reproducing the historical timing
     * bit-for-bit; > 0 makes BTB quality (and so BTB
     * virtualization) visible in IPC.
     */
    Cycles btbMispredictPenalty = 0;
    /** Per-core BTB arrangement (see BtbConfig). */
    BtbConfig btb;
    /**
     * Records each core consumes per turn of the functional
     * round-robin (runFunctional). Larger chunks amortize dispatch
     * and keep one core's model state hot in the host caches; 1
     * reproduces the historical record-by-record interleaving
     * exactly. Single-core runs are bit-identical for any value,
     * and every core always consumes the same per-core record
     * stream (records, instructions, loads/stores). Multi-core
     * cache statistics can shift slightly between chunk sizes: the
     * cores' accesses interleave differently at the shared L2, so
     * its LRU/eviction order — and which L1 blocks the inclusive
     * directory back-invalidates — differs. The effect is
     * statistically neutral; set 1 to reproduce pre-batching
     * multi-core numbers exactly.
     */
    uint64_t functionalChunk = 256;

    // ---- Data prefetcher under study ------------------------------------
    PrefetchMode prefetch = PrefetchMode::None;
    /** PHT geometry (dedicated and virtualized): default 1K-11a. */
    PhtGeometry phtGeometry{1024, 11};
    /** QoS contract of the implicit virtualized-PHT tenant
     *  (SmsVirtualized only). */
    PvTenantQos phtQos;
    /** PVCache entries for the virtualized PHT (paper: 8). */
    unsigned pvCacheEntries = 8;
    /**
     * PVCache locality prefetch depth (paper Section 4.3): sets
     * speculatively fetched ahead when a tenant's demand stream
     * extends a detected sequential-set stride. 0 (default) keeps
     * the detector off — bit-identical to the pre-prefetch proxy.
     */
    unsigned pvPrefetch = 0;
    /**
     * Victim-buffer entries per proxy retaining evicted-but-hot PV
     * lines, charged to the owning tenant's PVCache entitlement
     * share. 0 (default) disables retention.
     */
    unsigned victimEntries = 0;
    /** Paper Section 2.2 ablation: drop dirty PV lines at L2 evict. */
    bool dropPvWritebacks = false;
    /**
     * Paper Section 2.1 option: all cores share one PVTable (one
     * PVStart for everyone) instead of private per-core tables.
     * Each core keeps its own PVProxy/PVCache; sharing is safe
     * because predictor data is advisory. Useful when the cores run
     * the same application (patterns learned by one core serve all).
     */
    bool sharedPvTable = false;
    /**
     * Registry of additional virtualized engines per core beyond the
     * SMS PHT (which SmsVirtualized adds implicitly as the first
     * tenant). All engines of one core share that core's single
     * multi-tenant PVProxy; their segments are carved from the
     * per-core PV reservation in registry order. BTB engines are
     * wired into the core's branch handling automatically.
     */
    std::vector<VirtEngineConfig> virtEngines;

    /**
     * The full per-core engine registry: the implicit PHT tenant
     * (when prefetch == SmsVirtualized), the implicit BTB tenant
     * (when btb.mode == Virtualized), then virtEngines.
     */
    std::vector<VirtEngineConfig>
    engineRegistry() const
    {
        std::vector<VirtEngineConfig> r;
        if (prefetch == PrefetchMode::SmsVirtualized) {
            VirtEngineConfig pht;
            pht.kind = VirtEngineKind::Pht;
            pht.numSets = phtGeometry.numSets;
            pht.assoc = phtGeometry.assoc;
            pht.qos = phtQos;
            r.push_back(pht);
        }
        if (btb.mode == BtbMode::Virtualized) {
            VirtEngineConfig vb;
            vb.kind = VirtEngineKind::Btb;
            vb.numSets = btb.numSets;
            vb.assoc = btb.assoc;
            vb.tagBits = btb.tagBits;
            vb.qos = btb.qos;
            r.push_back(vb);
        }
        r.insert(r.end(), virtEngines.begin(), virtEngines.end());
        return r;
    }

    // ---- Workload ---------------------------------------------------------
    /** Preset name ("apache", ..., "qry17") fed to every core. */
    std::string workload = "apache";
    /**
     * Multi-programmed mix: per-core preset names overriding
     * `workload` when non-empty. Shorter lists wrap around the
     * cores (a 2-entry mix on 4 cores alternates), so the preset
     * mixes compose with any core count. Heterogeneous tenants
     * sharing the L2 — and the PV space — is what makes shared-L2
     * PV contention measurable at all.
     */
    std::vector<std::string> workloadMix;

    /** Preset feeding core `core` (mix entry, or the shared name). */
    const std::string &
    workloadFor(int core) const
    {
        if (workloadMix.empty())
            return workload;
        return workloadMix[size_t(core) % workloadMix.size()];
    }
    /** Added to the preset seed (batching / matched pairs). */
    uint64_t seedOffset = 0;
    /**
     * Control-flow profile applied on top of every core's preset
     * (trace/program_structure.hh): when enabled, the generators
     * emit basic-block bursts with learnable taken-branch successor
     * edges instead of the flat pc/gap interleaving. Disabled by
     * default — the historical streams (and the fig4/fig5 coverage
     * curves tuned against them) are bit-identical. The preset
     * mixes carry their own profiles; fig9Config installs them
     * here.
     */
    BranchProfile branchProfile;
    /**
     * When non-empty, cores replay captured traces
     * ("<traceDir>/core<i>.pvtrace") instead of generating
     * synthetically (record/replay workflow).
     */
    std::string traceDir;

    /** Reserved PVTable bytes per core (>= numSets * 64). */
    uint64_t pvBytesPerCore = 64 * 1024;

    /** Short label for reports, e.g. "SMS-1K" or "SMS-PV8". */
    std::string label() const;
};

} // namespace pvsim

#endif // PVSIM_HARNESS_SYSTEM_CONFIG_HH
