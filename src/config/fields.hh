/**
 * @file
 * The one declaration site of every config struct's serialized
 * fields. Each reflectFields() below is consumed simultaneously by
 * the JSON writer, the strict JSON reader, and the fingerprint
 * hash (config/reflect.hh), so adding a field to a config struct
 * means adding exactly one line here — write, read, defaulting,
 * unknown-key rejection and fingerprinting all follow.
 *
 * Key spelling is snake_case, matching the BENCH_*.json artifacts
 * the bench gate already consumes.
 */

#ifndef PVSIM_CONFIG_FIELDS_HH
#define PVSIM_CONFIG_FIELDS_HH

#include "config/reflect.hh"
#include "harness/metrics.hh"
#include "harness/system_config.hh"

namespace pvsim {

// ---- Enum name registrations ------------------------------------------

inline const std::vector<std::pair<SimMode, const char *>> &
enumNames(SimMode *)
{
    static const std::vector<std::pair<SimMode, const char *>> e = {
        {SimMode::Functional, "functional"},
        {SimMode::Timing, "timing"},
    };
    return e;
}

inline const std::vector<std::pair<PrefetchMode, const char *>> &
enumNames(PrefetchMode *)
{
    static const std::vector<std::pair<PrefetchMode, const char *>>
        e = {
            {PrefetchMode::None, "none"},
            {PrefetchMode::SmsInfinite, "sms_infinite"},
            {PrefetchMode::SmsDedicated, "sms_dedicated"},
            {PrefetchMode::SmsVirtualized, "sms_virtualized"},
            {PrefetchMode::Stride, "stride"},
        };
    return e;
}

inline const std::vector<std::pair<BtbMode, const char *>> &
enumNames(BtbMode *)
{
    static const std::vector<std::pair<BtbMode, const char *>> e = {
        {BtbMode::None, "none"},
        {BtbMode::Dedicated, "dedicated"},
        {BtbMode::Virtualized, "virtualized"},
    };
    return e;
}

inline const std::vector<std::pair<VirtEngineKind, const char *>> &
enumNames(VirtEngineKind *)
{
    static const std::vector<std::pair<VirtEngineKind, const char *>>
        e = {
            {VirtEngineKind::Pht, "pht"},
            {VirtEngineKind::Btb, "btb"},
            {VirtEngineKind::Stride, "stride"},
            {VirtEngineKind::Agt, "agt"},
        };
    return e;
}

// ---- Core / engine configs --------------------------------------------

template <class V>
void
reflectFields(PvTenantQos &c, V &v)
{
    v.field("weight", c.weight);
    v.field("pvcache_floor", c.pvCacheFloor);
    v.field("mshr_floor", c.mshrFloor);
    v.field("pattern_buffer_floor", c.patternBufferFloor);
}

template <class V>
void
reflectFields(PhtGeometry &c, V &v)
{
    v.field("num_sets", c.numSets);
    v.field("assoc", c.assoc);
}

template <class V>
void
reflectFields(BtbConfig &c, V &v)
{
    v.field("mode", c.mode);
    v.field("num_sets", c.numSets);
    v.field("assoc", c.assoc);
    v.field("tag_bits", c.tagBits);
    v.field("qos", c.qos);
}

template <class V>
void
reflectFields(VirtEngineConfig &c, V &v)
{
    v.field("kind", c.kind);
    v.field("name", c.name);
    v.field("num_sets", c.numSets);
    v.field("assoc", c.assoc);
    v.field("tag_bits", c.tagBits);
    v.field("qos", c.qos);
}

// ---- Workload layer ---------------------------------------------------

template <class V>
void
reflectFields(BranchKnobs &c, V &v)
{
    v.field("bb_mean_records", c.bbMeanRecords);
    v.field("routine_blocks", c.routineBlocks);
    v.field("num_routines", c.numRoutines);
    v.field("call_depth", c.callDepth);
    v.field("call_fraction", c.callFraction);
    v.field("loop_fraction", c.loopFraction);
    v.field("loop_trip_mean", c.loopTripMean);
    v.field("edge_stability", c.edgeStability);
}

template <class V>
void
reflectFields(BranchProfile &c, V &v)
{
    v.field("enabled", c.enabled);
    reflectFields(static_cast<BranchKnobs &>(c), v);
}

template <class V>
void
reflectFields(WorkloadParams &c, V &v)
{
    v.field("name", c.name);
    v.field("seed", c.seed);
    v.field("data_regions", c.dataRegions);
    v.field("code_blocks", c.codeBlocks);
    v.field("irregular_blocks", c.irregularBlocks);
    v.field("num_trigger_pcs", c.numTriggerPcs);
    v.field("offsets_per_pc", c.offsetsPerPc);
    v.field("key_zipf_alpha", c.keyZipfAlpha);
    v.field("region_zipf_alpha", c.regionZipfAlpha);
    v.field("pattern_stability", c.patternStability);
    v.field("pattern_noise", c.patternNoise);
    v.field("pattern_density", c.patternDensity);
    v.field("scan_fraction", c.scanFraction);
    v.field("scan_streams", c.scanStreams);
    v.field("irregular_fraction", c.irregularFraction);
    v.field("store_fraction", c.storeFraction);
    v.field("shared_fraction", c.sharedFraction);
    v.field("gap_mean", c.gapMean);
    v.field("concurrency", c.concurrency);
    v.field("branch_model", c.branchModel);
    v.field("branch", c.branch);
}

template <class V>
void
reflectFields(WorkloadMix &c, V &v)
{
    v.field("name", c.name);
    v.field("workloads", c.workloads);
    v.field("branch", c.branch);
}

/**
 * A WorkloadMix may be spelled as a bare preset-name string
 * ("mixed" -> presetMixes() entry) or as a full inline object; the
 * canonical (re-serialized) form is always the full object.
 */
inline void
fromJson(const json::Value &j, WorkloadMix &out,
         const std::string &path)
{
    if (j.isString()) {
        const std::string &name = j.asString(path);
        std::string known;
        for (const WorkloadMix &m : presetMixes()) {
            if (m.name == name) {
                out = m;
                return;
            }
            if (!known.empty())
                known += ", ";
            known += m.name;
        }
        throw json::ConfigError(path + ": unknown preset mix \"" +
                                name + "\" (one of: " + known + ")");
    }
    config::ReadVisitor r(j, path);
    reflectFields(out, r);
    r.finish();
}

// ---- Whole-system config ----------------------------------------------

template <class V>
void
reflectFields(SystemConfig &c, V &v)
{
    v.field("mode", c.mode);
    v.field("num_cores", c.numCores);
    v.field("l1_size_bytes", c.l1SizeBytes);
    v.field("l1_assoc", c.l1Assoc);
    v.field("l1_tag_latency", c.l1TagLatency);
    v.field("l1_data_latency", c.l1DataLatency);
    v.field("l1_mshrs", c.l1Mshrs);
    v.field("l2_size_bytes", c.l2SizeBytes);
    v.field("l2_assoc", c.l2Assoc);
    v.field("l2_banks", c.l2Banks);
    v.field("l2_tag_latency", c.l2TagLatency);
    v.field("l2_data_latency", c.l2DataLatency);
    v.field("l2_mshrs", c.l2Mshrs);
    v.field("mem_latency", c.memLatency);
    v.field("mem_service_interval", c.memServiceInterval);
    v.field("mem_bytes", c.memBytes);
    v.field("core_width", c.coreWidth);
    v.field("store_buffer_entries", c.storeBufferEntries);
    v.field("next_line_l1i", c.nextLineL1I);
    v.field("btb_mispredict_penalty", c.btbMispredictPenalty);
    v.field("btb", c.btb);
    v.field("functional_chunk", c.functionalChunk);
    v.field("prefetch", c.prefetch);
    v.field("pht_geometry", c.phtGeometry);
    v.field("pht_qos", c.phtQos);
    v.field("pv_cache_entries", c.pvCacheEntries);
    v.field("pv_prefetch", c.pvPrefetch);
    v.field("victim_entries", c.victimEntries);
    v.field("drop_pv_writebacks", c.dropPvWritebacks);
    v.field("shared_pv_table", c.sharedPvTable);
    v.field("virt_engines", c.virtEngines);
    v.field("workload", c.workload);
    v.field("workload_mix", c.workloadMix);
    v.field("seed_offset", c.seedOffset);
    v.field("branch_profile", c.branchProfile);
    v.field("trace_dir", c.traceDir);
    v.field("pv_bytes_per_core", c.pvBytesPerCore);
}

// ---- Sweep option bundles (harness/metrics.hh) ------------------------

template <class V>
void
reflectFields(Fig9Options &c, V &v)
{
    v.field("cores", c.numCores);
    v.field("btb_sets", c.btbSets);
    v.field("btb_assoc", c.btbAssoc);
    v.field("penalty_cycles", c.penalty);
    v.field("warmup_records", c.warmupRecords);
    v.field("measure_records", c.measureRecords);
    v.field("batches", c.batches);
    v.field("mixes", c.mixes);
    v.field("edge_stabilities", c.edgeStabilities);
    v.field("pv_prefetch", c.pvPrefetch);
    v.field("victim_entries", c.victimEntries);
}

template <class V>
void
reflectFields(QosSetting &c, V &v)
{
    v.field("label", c.label);
    v.field("btb", c.btb);
    v.field("aggressor", c.aggressor);
}

/**
 * A QosSetting may likewise be a bare preset-label string ("4:1" ->
 * presetQosSettings() entry) or a full inline contract pair.
 */
inline void
fromJson(const json::Value &j, QosSetting &out,
         const std::string &path)
{
    if (j.isString()) {
        const std::string &label = j.asString(path);
        std::string known;
        for (const QosSetting &s : presetQosSettings()) {
            if (s.label == label) {
                out = s;
                return;
            }
            if (!known.empty())
                known += ", ";
            known += s.label;
        }
        throw json::ConfigError(path + ": unknown QoS setting \"" +
                                label + "\" (one of: " + known +
                                ")");
    }
    config::ReadVisitor r(j, path);
    reflectFields(out, r);
    r.finish();
}

template <class V>
void
reflectFields(QosOptions &c, V &v)
{
    v.field("cores", c.numCores);
    v.field("btb_sets", c.btbSets);
    v.field("btb_assoc", c.btbAssoc);
    v.field("agt_sets", c.agtSets);
    v.field("penalty_cycles", c.penalty);
    // Renamed from "pvcache_entries" to match SystemConfig's
    // spelling; the alias keeps committed scenarios parsing.
    v.alias("pvcache_entries", c.pvCacheEntries);
    v.field("pv_cache_entries", c.pvCacheEntries);
    v.field("pv_prefetch", c.pvPrefetch);
    v.field("victim_entries", c.victimEntries);
    v.field("warmup_records", c.warmupRecords);
    v.field("measure_records", c.measureRecords);
    v.field("batches", c.batches);
    v.field("settings", c.settings);
}

} // namespace pvsim

#endif // PVSIM_CONFIG_FIELDS_HH
