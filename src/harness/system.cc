#include "harness/system.hh"

#include <algorithm>

#include "trace/workload.hh"
#include "util/logging.hh"

namespace pvsim {

const char *
btbModeName(BtbMode mode)
{
    switch (mode) {
      case BtbMode::None: return "none";
      case BtbMode::Dedicated: return "BTB";
      case BtbMode::Virtualized: return "BTB-PV";
    }
    return "unknown";
}

std::string
SystemConfig::label() const
{
    std::string base = "unknown";
    switch (prefetch) {
      case PrefetchMode::None:
        base = "baseline";
        break;
      case PrefetchMode::SmsInfinite:
        base = "SMS-Infinite";
        break;
      case PrefetchMode::SmsDedicated:
        base = "SMS-" + phtGeometry.label();
        break;
      case PrefetchMode::SmsVirtualized:
        base = "SMS-PV" + std::to_string(pvCacheEntries);
        break;
    }
    if (btb.mode != BtbMode::None)
        base += std::string("+") + btbModeName(btb.mode);
    return base;
}

std::string
systemConfigProblem(const SystemConfig &cfg)
{
    if (cfg.numCores < 1 || cfg.numCores > kMaxCores)
        return "num_cores: must be in [1, " + std::to_string(kMaxCores) +
               "] (the L2 directory tracks an L1I and an L1D per core)";
    auto cache = [](const std::string &l, uint64_t bytes, unsigned assoc,
                    Cycles tag_latency, unsigned mshrs) -> std::string {
        if (assoc < 1)
            return l + "_assoc: must be >= 1";
        if (bytes == 0 || bytes % (uint64_t(assoc) * kBlockBytes))
            return l + "_size_bytes: must be a nonzero multiple of " + l +
                   "_assoc x " + std::to_string(kBlockBytes) + " bytes";
        if (tag_latency < 1)
            return l + "_tag_latency: must be >= 1";
        // A cache without MSHRs refuses every miss, and no release
        // ever wakes the refused request.
        return mshrs < 1 ? l + "_mshrs: must be >= 1" : "";
    };
    for (const std::string &p :
         {cache("l1", cfg.l1SizeBytes, cfg.l1Assoc, cfg.l1TagLatency,
                cfg.l1Mshrs),
          cache("l2", cfg.l2SizeBytes, cfg.l2Assoc, cfg.l2TagLatency,
                cfg.l2Mshrs)}) {
        if (!p.empty())
            return p;
    }
    if (cfg.coreWidth < 1 || cfg.storeBufferEntries < 1)
        return "core_width and store_buffer_entries: must be >= 1";
    if (!isWorkloadPreset(cfg.workload))
        return "workload: unknown preset \"" + cfg.workload + "\"";
    for (size_t i = 0; i < cfg.workloadMix.size(); ++i) {
        if (!isWorkloadPreset(cfg.workloadMix[i]))
            return "workload_mix[" + std::to_string(i) +
                   "]: unknown preset \"" + cfg.workloadMix[i] + "\"";
    }
    if (cfg.pvBytesPerCore % kBlockBytes ||
        cfg.pvBytesPerCore * uint64_t(cfg.numCores) >= cfg.memBytes)
        return "pv_bytes_per_core: must be a multiple of " +
               std::to_string(kBlockBytes) +
               " whose num_cores copies fit below mem_bytes";
    if ((cfg.prefetch == PrefetchMode::SmsDedicated ||
         cfg.prefetch == PrefetchMode::SmsVirtualized) &&
        (cfg.phtGeometry.numSets < 1 || cfg.phtGeometry.assoc < 1))
        return "pht_geometry: num_sets and assoc must be >= 1";
    if (cfg.btb.mode != BtbMode::None &&
        (cfg.btb.numSets < 1 || cfg.btb.assoc < 1))
        return "btb: num_sets and assoc must be >= 1";

    // Each registry entry's field path, in engineRegistry() order.
    std::vector<std::string> paths;
    if (cfg.prefetch == PrefetchMode::SmsVirtualized)
        paths.push_back("pht_geometry");
    if (cfg.btb.mode == BtbMode::Virtualized)
        paths.push_back("btb");
    for (size_t i = 0; i < cfg.virtEngines.size(); ++i) {
        paths.push_back("virt_engines[" + std::to_string(i) + "]");
        // The prefetch mode implies the PHT tenant and wires the SMS
        // prefetcher that drives it.
        if (cfg.virtEngines[i].kind == VirtEngineKind::Pht)
            return paths.back() + ": a PHT tenant comes from prefetch "
                                  "\"sms_virtualized\"";
    }
    const std::vector<VirtEngineConfig> registry = cfg.engineRegistry();
    uint64_t registry_bytes = 0;
    for (size_t i = 0; i < registry.size(); ++i) {
        const VirtEngineConfig &ec = registry[i];
        if (ec.numSets < 1 || ec.assoc < 1 || ec.assoc > kPvMaxWays ||
            ec.tagBits > 32)
            return paths[i] + ": num_sets must be >= 1, assoc in [1, " +
                   std::to_string(kPvMaxWays) + "], tag_bits <= 32";
        // The packing codec lays one set into one PV line.
        if (ec.assoc * virtEngineEntryBits(ec) > kBlockBytes * 8)
            return paths[i] + ": a set of " + std::to_string(ec.assoc) +
                   " x " + std::to_string(virtEngineEntryBits(ec)) +
                   "-bit entries does not fit a " +
                   std::to_string(kBlockBytes) + "-byte line";
        for (size_t j = 0; j < i; ++j) {
            if (registry[j].scopeName() == ec.scopeName())
                return paths[i] + ": its tenant name is " + paths[j] +
                       "'s; name same-kind engines apart";
        }
        registry_bytes += uint64_t(ec.numSets) * kBlockBytes;
    }
    if (registry_bytes > cfg.pvBytesPerCore)
        return "pv_bytes_per_core: the PVTables need " +
               std::to_string(registry_bytes) + " bytes per core";
    if (!registry.empty() && cfg.pvCacheEntries < 1)
        return "pv_cache_entries: must be >= 1 with a virtualized engine";
    return "";
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), ctx_(cfg.mode),
      addrMap_(cfg.memBytes, cfg.numCores, cfg.pvBytesPerCore)
{
    pv_assert(cfg_.numCores > 0, "need at least one core");
    const std::vector<VirtEngineConfig> registry =
        cfg_.engineRegistry();
    uint64_t registry_bytes = 0;
    for (const auto &ec : registry)
        registry_bytes += uint64_t(ec.numSets) * kBlockBytes;
    for (const auto &ec : cfg_.virtEngines) {
        // The PHT tenant is implied by prefetch == SmsVirtualized
        // (which also wires the SMS prefetcher); a bare Pht registry
        // entry would create a PHT nothing drives.
        pv_assert(ec.kind != VirtEngineKind::Pht,
                  "request the PHT via PrefetchMode::SmsVirtualized, "
                  "not a virtEngines entry");
    }
    pv_assert(registry_bytes <= cfg_.pvBytesPerCore,
              "engine registry (%llu bytes of PVTables) exceeds the "
              "per-core reservation",
              (unsigned long long)registry_bytes);

    DramParams dp;
    dp.name = "dram";
    dp.latency = cfg_.memLatency;
    dp.serviceInterval = cfg_.memServiceInterval;
    dram_ = std::make_unique<Dram>(ctx_, dp, &addrMap_);

    CacheParams l2p;
    l2p.name = "l2";
    l2p.sizeBytes = cfg_.l2SizeBytes;
    l2p.assoc = cfg_.l2Assoc;
    l2p.tagLatency = cfg_.l2TagLatency;
    l2p.dataLatency = cfg_.l2DataLatency;
    l2p.numMshrs = cfg_.l2Mshrs;
    l2p.banks = cfg_.l2Banks;
    l2p.directory = true;
    l2p.dropPvWritebacks = cfg_.dropPvWritebacks;
    l2_ = std::make_unique<Cache>(ctx_, l2p, &addrMap_);
    l2_->setMemSide(dram_.get());

    for (int c = 0; c < cfg_.numCores; ++c) {
        std::string cn = "core" + std::to_string(c);

        // Per-core preset: heterogeneous multi-programmed mixes run
        // a different workload on each core (workloadMix), the
        // historical path feeds every core the same one. The
        // config's branch profile (if enabled) layers the
        // control-flow model on top of the preset's data streams.
        WorkloadParams wp = workloadPreset(cfg_.workloadFor(c));
        wp.seed += cfg_.seedOffset;
        cfg_.branchProfile.applyTo(wp);

        CacheParams l1p;
        l1p.sizeBytes = cfg_.l1SizeBytes;
        l1p.assoc = cfg_.l1Assoc;
        l1p.tagLatency = cfg_.l1TagLatency;
        l1p.dataLatency = cfg_.l1DataLatency;
        l1p.numMshrs = cfg_.l1Mshrs;

        l1p.name = cn + ".l1d";
        auto l1d = std::make_unique<Cache>(ctx_, l1p, &addrMap_);
        l1p.name = cn + ".l1i";
        auto l1i = std::make_unique<Cache>(ctx_, l1p, &addrMap_);

        l1d->setMemSide(l2_.get());
        l1d->setLowerSlot(l2_->attachClient(l1d.get()));
        l1i->setMemSide(l2_.get());
        l1i->setLowerSlot(l2_->attachClient(l1i.get()));

        std::unique_ptr<TraceSource> workload;
        if (!cfg_.traceDir.empty()) {
            workload = std::make_unique<TraceFileReader>(
                cfg_.traceDir + "/core" + std::to_string(c) +
                ".pvtrace");
        } else {
            workload = std::make_unique<SyntheticWorkload>(wp, c);
        }

        CoreParams corep;
        corep.name = cn;
        corep.id = c;
        corep.width = cfg_.coreWidth;
        corep.storeBufferEntries = cfg_.storeBufferEntries;
        corep.btbMispredictPenalty = cfg_.btbMispredictPenalty;
        auto core = std::make_unique<TraceCore>(
            ctx_, corep, workload.get(), l1d.get(), l1i.get());

        if (cfg_.nextLineL1I) {
            auto nl = std::make_unique<NextLinePrefetcher>(
                ctx_, cn + ".l1i_pf", l1i.get());
            l1i->setListener(nl.get());
            nextLines_.push_back(std::move(nl));
        }

        // ---- Virtualized engines: one shared proxy per core ------
        std::unique_ptr<PvProxy> pvproxy;
        std::vector<std::unique_ptr<VirtEngine>> engines;
        PatternHistoryTable *pht = nullptr;
        if (!registry.empty()) {
            PvProxyParams pp;
            pp.name = cn + ".pvproxy";
            pp.pvCacheEntries = cfg_.pvCacheEntries;
            pp.prefetchDepth = cfg_.pvPrefetch;
            pp.victimEntries = cfg_.victimEntries;
            // Shared tables: everyone gets core 0's PVStart
            // (paper Section 2.1's alternative design).
            Addr pv_start = cfg_.sharedPvTable
                                ? addrMap_.pvStart(0)
                                : addrMap_.pvStart(c);
            pvproxy = std::make_unique<PvProxy>(
                ctx_, pp, pv_start, cfg_.pvBytesPerCore);
            pvproxy->setMemSide(l2_.get());

            // The core drives the first tenant of each kind (the
            // accessors also resolve to the first); later same-kind
            // tenants are passive storage tenants.
            VirtualizedBtb *first_btb = nullptr;
            VirtualizedAgt *first_agt = nullptr;
            for (const auto &ec : registry) {
                auto e = makeEngine(ec.kind, ec, *pvproxy);
                switch (ec.kind) {
                  case VirtEngineKind::Pht:
                    pht = static_cast<VirtualizedPht *>(e.get());
                    break;
                  case VirtEngineKind::Btb:
                    if (!first_btb)
                        first_btb =
                            static_cast<VirtualizedBtb *>(e.get());
                    break;
                  case VirtEngineKind::Agt:
                    if (!first_agt)
                        first_agt =
                            static_cast<VirtualizedAgt *>(e.get());
                    break;
                }
                engines.push_back(std::move(e));
            }
            core->setBtb(first_btb);
            core->setAgt(first_agt);
        }

        // Dedicated-SRAM BTB: the matched-pair partner of the
        // virtualized arrangement. It takes precedence over any
        // registry BTB tenant — a config asking for both keeps the
        // tenant as passive PV storage and fetches through SRAM.
        std::unique_ptr<DedicatedBtb> dedicated_btb;
        if (cfg_.btb.mode == BtbMode::Dedicated) {
            DedicatedBtbParams bp;
            bp.numSets = cfg_.btb.numSets;
            bp.assoc = cfg_.btb.assoc;
            bp.tagBits = cfg_.btb.tagBits;
            dedicated_btb = std::make_unique<DedicatedBtb>(bp);
            core->setBtb(dedicated_btb.get());
        }
        dedicatedBtbs_.push_back(std::move(dedicated_btb));

        switch (cfg_.prefetch) {
          case PrefetchMode::None:
          case PrefetchMode::SmsVirtualized: // registry tenant above
            break;
          case PrefetchMode::SmsInfinite: {
            auto p = std::make_unique<InfinitePht>();
            pht = p.get();
            ownedPhts_.push_back(std::move(p));
            break;
          }
          case PrefetchMode::SmsDedicated: {
            auto p = std::make_unique<SetAssocPht>(cfg_.phtGeometry);
            pht = p.get();
            ownedPhts_.push_back(std::move(p));
            break;
          }
        }

        std::unique_ptr<SmsPrefetcher> sms;
        if (pht) {
            SmsParams sp;
            sp.name = cn + ".sms";
            sms = std::make_unique<SmsPrefetcher>(ctx_, sp,
                                                  l1d.get(), pht);
            l1d->setListener(sms.get());
        }

        phts_.push_back(pht);
        pvProxies_.push_back(std::move(pvproxy));
        engines_.push_back(std::move(engines));
        smses_.push_back(std::move(sms));
        l1ds_.push_back(std::move(l1d));
        l1is_.push_back(std::move(l1i));
        workloads_.push_back(std::move(workload));
        cores_.push_back(std::move(core));
    }
}

VirtEngine *
System::engine(int core, const std::string &name)
{
    for (auto &e : engines_.at(core)) {
        if (e->engineName() == name)
            return e.get();
    }
    return nullptr;
}

System::~System() = default;

void
System::runFunctional(uint64_t refs_per_core)
{
    pv_assert(ctx_.mode() == SimMode::Functional,
              "runFunctional on a timing system");
    // Round-robin the cores in chunks: each turn consumes up to
    // SystemConfig::functionalChunk records. Every core consumes
    // exactly refs_per_core records (or its whole trace).
    std::vector<uint64_t> remaining(size_t(cfg_.numCores),
                                    refs_per_core);
    int live_count = refs_per_core > 0 ? cfg_.numCores : 0;
    while (live_count > 0) {
        for (int c = 0; c < cfg_.numCores; ++c) {
            if (remaining[c] == 0)
                continue;
            uint64_t want =
                std::min(SystemConfig::functionalChunk, remaining[c]);
            uint64_t got = cores_[c]->stepFunctionalBatch(want);
            remaining[c] -= got;
            if (got < want)
                remaining[c] = 0; // end of trace
            if (remaining[c] == 0)
                --live_count;
        }
    }
}

Tick
System::runTiming(uint64_t records_per_core)
{
    pv_assert(ctx_.mode() == SimMode::Timing,
              "runTiming on a functional system");
    for (auto &core : cores_)
        core->start(records_per_core);

    // A core is done from the tick it consumed its last record
    // until the next start(), so the cores before first_busy stay
    // done and each tick resumes the check there.
    Tick last_finish = 0;
    size_t first_busy = 0;
    auto &eq = ctx_.events();
    while (!eq.empty()) {
        eq.runOneTick();
        while (first_busy < cores_.size() && cores_[first_busy]->done())
            ++first_busy;
        if (first_busy == cores_.size()) {
            if (last_finish == 0)
                last_finish = eq.curTick();
            // Keep draining in-flight prefetches and writebacks.
        }
    }
    // A drained queue with a retry still parked means a device
    // refused it and never noted the release that would wake it.
    if (eq.numParked() != 0) {
        std::string who;
        for (const std::string &n : eq.parkedNames())
            who += (who.empty() ? "" : ", ") + n;
        panic("event queue drained with %zu retr%s still parked "
              "(lost wake-up): %s",
              eq.numParked(), eq.numParked() == 1 ? "y" : "ies",
              who.c_str());
    }
    // A drained queue with a core still running means a response
    // was lost somewhere below — fail loudly instead of returning
    // a silently truncated (and wildly wrong) measurement.
    for (auto &core : cores_) {
        pv_assert(core->done(),
                  "%s: event queue drained mid-run — lost response",
                  core->name().c_str());
    }
    return last_finish ? last_finish : eq.curTick();
}

void
System::resetStats()
{
    ctx_.resetStats();
}

uint64_t
System::totalInstructions() const
{
    uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instructionsRetired();
    return total;
}

bool
System::quiesced() const
{
    bool q = ctx_.events().numParked() == 0 && l2_->quiesced();
    for (const auto &c : l1ds_)
        q = q && c->quiesced();
    for (const auto &c : l1is_)
        q = q && c->quiesced();
    for (const auto &p : pvProxies_) {
        if (p)
            q = q && p->quiesced();
    }
    return q;
}

} // namespace pvsim
