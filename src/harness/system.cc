#include "harness/system.hh"

#include <algorithm>

#include "trace/workload.hh"
#include "util/logging.hh"

namespace pvsim {

const char *
prefetchModeName(PrefetchMode mode)
{
    switch (mode) {
      case PrefetchMode::None: return "baseline";
      case PrefetchMode::SmsInfinite: return "SMS-Infinite";
      case PrefetchMode::SmsDedicated: return "SMS";
      case PrefetchMode::SmsVirtualized: return "SMS-PV";
      case PrefetchMode::Stride: return "stride";
    }
    return "unknown";
}

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
      case PrefetchMode::Stride:
        base = "stride";
        break;
    }
    if (btb.mode != BtbMode::None)
        base += std::string("+") + btbModeName(btb.mode);
    return base;
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
            pp.usedBitsPerLine = 0; // tenants report their codecs
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
            VirtualizedStride *first_stride = nullptr;
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
                  case VirtEngineKind::Stride:
                    if (!first_stride)
                        first_stride =
                            static_cast<VirtualizedStride *>(e.get());
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
            core->setStride(first_stride);
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
          case PrefetchMode::Stride: // handled below, PHT-less
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

        std::unique_ptr<StridePrefetcher> stride;
        if (cfg_.prefetch == PrefetchMode::Stride) {
            StrideParams stp;
            stp.name = cn + ".stride";
            stride = std::make_unique<StridePrefetcher>(
                ctx_, stp, l1d.get());
            l1d->setListener(stride.get());
        }
        strides_.push_back(std::move(stride));

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
    const uint64_t chunk = std::max<uint64_t>(1, cfg_.functionalChunk);
    // Round-robin the cores in chunks: each turn consumes up to
    // `chunk` records through the batched stepping path instead of
    // a single record, amortizing dispatch across the chunk. Every
    // core still consumes exactly refs_per_core records (or its
    // whole trace).
    std::vector<uint64_t> remaining(size_t(cfg_.numCores),
                                    refs_per_core);
    int live_count = refs_per_core > 0 ? cfg_.numCores : 0;
    while (live_count > 0) {
        for (int c = 0; c < cfg_.numCores; ++c) {
            if (remaining[c] == 0)
                continue;
            uint64_t want = std::min(chunk, remaining[c]);
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

    Tick last_finish = 0;
    auto &eq = ctx_.events();
    while (!eq.empty()) {
        eq.runOneTick();
        bool all_done = true;
        for (auto &core : cores_)
            all_done = all_done && core->done();
        if (all_done) {
            if (last_finish == 0)
                last_finish = eq.curTick();
            // Keep draining in-flight prefetches and writebacks.
        }
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
    for (auto &btb : dedicatedBtbs_) {
        if (btb)
            btb->resetLookupStats();
    }
    for (auto &engines : engines_) {
        for (auto &e : engines) {
            if (auto *vb = dynamic_cast<VirtualizedBtb *>(e.get()))
                vb->resetLookupStats();
        }
    }
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
    bool q = l2_->quiesced();
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
