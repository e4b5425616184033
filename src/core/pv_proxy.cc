#include "core/pv_proxy.hh"

#include <algorithm>

#include "mem/packet_pool.hh"
#include "util/intmath.hh"
#include "util/logging.hh"

namespace pvsim {

PvProxy::EngineStats::EngineStats(stats::Group *parent,
                                  const std::string &name)
    : stats::Group(parent, name),
      operations(this, "operations",
                 "store/retrieve operations from this engine"),
      hits(this, "hits", "operations hitting the PVCache"),
      misses(this, "misses", "operations missing the PVCache"),
      drops(this, "drops",
            "operations dropped and reported as predictor miss"),
      qosDrops(this, "qos_drops",
               "operations dropped by the share policy "
               "(fair-share or weighted QoS)"),
      fills(this, "fills", "demand sets fetched for this engine"),
      writebacks(this, "writebacks",
                 "dirty lines of this engine written to the L2"),
      fillLatencyTicks(this, "fill_latency_ticks",
                       "ticks this engine's demand fills spent "
                       "between fetch issue and PVCache install"),
      pvCachePeak(this, "pvcache_peak",
                  "most PVCache entries held at once"),
      prefetchFills(this, "prefetch_fills",
                    "speculative sets installed for this engine"),
      prefetchUseful(this, "prefetch_useful",
                     "prefetched lines later hit by a demand op"),
      prefetchDrops(this, "prefetch_drops",
                    "prefetches dropped by headroom/entitlement"),
      victimHits(this, "victim_hits",
                 "demand misses served from the victim buffer")
{
}

PvProxy::PvProxy(SimContext &ctx, const PvProxyParams &params,
                 Addr region_start, uint64_t region_bytes)
    : SimObject(ctx, nullptr, params.name),
      operations(this, "operations",
                 "store/retrieve operations from all engines"),
      pvCacheHits(this, "pvcache_hits", "operations hitting the PVCache"),
      pvCacheMisses(this, "pvcache_misses",
                    "operations missing the PVCache"),
      memRequests(this, "mem_requests", "set fetches sent to the L2"),
      coalescedOps(this, "coalesced_ops",
                   "operations joining an in-flight fetch"),
      droppedOps(this, "dropped_ops",
                 "operations dropped and reported as predictor miss"),
      fairnessDrops(this, "fairness_drops",
                    "operations dropped by the fair-share policy"),
      fills(this, "fills", "demand sets installed in the PVCache"),
      writebacks(this, "writebacks", "dirty lines written to the L2"),
      cleanEvicts(this, "clean_evicts",
                  "clean lines discarded on eviction"),
      evictOverflows(this, "evict_overflows",
                     "evictions exceeding the evict buffer"),
      prefetchFills(this, "prefetch_fills",
                    "speculative sets installed in the PVCache"),
      prefetchUseful(this, "prefetch_useful",
                     "prefetched lines later hit by a demand op"),
      prefetchDrops(this, "prefetch_drops",
                    "prefetches dropped by headroom/entitlement"),
      victimHits(this, "victim_hits",
                 "demand misses served from the victim buffer"),
      params_(params), region_(region_start, region_bytes),
      sendQueue_(ctx.events(), name(), nullptr)
{
    pv_assert(params_.pvCacheEntries > 0, "PVCache needs entries");
    entries_.resize(params_.pvCacheEntries);
    victims_.resize(params_.victimEntries);
    // The pattern buffer bounds the ops of all MSHRs together, so
    // no op vector ever grows past this.
    inFlight_.resize(params_.mshrs);
    for (auto &f : inFlight_)
        f.pendingOps.reserve(params_.patternBufferEntries);
    opScratch_.reserve(params_.patternBufferEntries);
    qos_.setCapacities(params_.pvCacheEntries, params_.mshrs,
                       params_.patternBufferEntries);
}

unsigned
PvProxy::registerEngine(const PvEngineInfo &info)
{
    pv_assert(info.numSets > 0, "engine needs at least one set");
    for (const auto &e : engines_) {
        pv_assert(e.info.name != info.name,
                  "duplicate tenant name '%s' on proxy %s",
                  info.name.c_str(), name().c_str());
    }
    unsigned table = numEngines();
    Engine e{info, region_.allocate(info.numSets),
             std::make_unique<EngineStats>(this, info.name), {}};
    engines_.push_back(std::move(e));
    qos_.addTenant(info.qos);
    cacheOcc_.push_back(0);
    victimOcc_.push_back(0);
    return table;
}

PvProxy::CacheEntry *
PvProxy::findLine(std::vector<CacheEntry> &buffer, unsigned line)
{
    for (auto &e : buffer) {
        if (e.valid && e.line == line)
            return &e;
    }
    return nullptr;
}

PvProxy::CacheEntry *
PvProxy::freeEntry(std::vector<CacheEntry> &buffer)
{
    for (auto &e : buffer) {
        if (!e.valid)
            return &e;
    }
    return nullptr;
}

template <class Pred>
PvProxy::CacheEntry *
PvProxy::lruAmong(std::vector<CacheEntry> &buffer, Pred pred)
{
    CacheEntry *v = nullptr;
    for (auto &e : buffer) {
        if (e.valid && pred(e) && (!v || e.lastTouch < v->lastTouch))
            v = &e;
    }
    return v;
}

void
PvProxy::writeBack(const CacheEntry &e)
{
    if (!e.dirty) {
        ++cleanEvicts;
        return;
    }
    // Dirty predictor lines are sent to the memory hierarchy like
    // any other data (paper Section 2.2).
    pv_assert(memSide_ != nullptr, "PVProxy has no memory side");
    if (sendQueue_.size() >= params_.evictBufferEntries)
        ++evictOverflows;
    auto *wb = allocPacket(MemCmd::Writeback, lineAddress(e.line),
                           kInvalidCore);
    wb->coherent = false;
    wb->setData(e.bytes.data());
    ++writebacks;
    ++engineStats(e.table).writebacks;
    if (isTiming()) {
        sendQueue_.push(wb);
        return;
    }
    memSide_->functionalAccess(*wb);
    freePacket(wb);
}

void
PvProxy::evictEntry(CacheEntry &e, bool retain)
{
    if (!e.valid)
        return;
    // A line moved into the victim buffer keeps its dirty state
    // there and costs no memory traffic.
    if (!retain || !retainVictim(e))
        writeBack(e);
    e.valid = false;
    e.dirty = false;
    e.prefetched = false;
    pv_assert(cacheOcc_[e.table] > 0, "PVCache occupancy underflow");
    --cacheOcc_[e.table];
}

unsigned
PvProxy::victimShare(unsigned table) const
{
    unsigned cap = unsigned(victims_.size());
    if (cap == 0)
        return 0;
    if (!qos_.active())
        return cap;
    // Victim capacity is charged to the owning tenant's PVCache
    // entitlement share: a zero-entitlement tenant retains nothing,
    // and an aggressor cannot launder occupancy through the buffer.
    unsigned ent = qos_.entitlement(table, PvQosArbiter::PvCache);
    if (ent == 0)
        return 0;
    return std::max(1u, cap * ent / params_.pvCacheEntries);
}

bool
PvProxy::retainVictim(const CacheEntry &e)
{
    unsigned cap = victimShare(e.table);
    if (cap == 0)
        return false;

    CacheEntry *slot = freeEntry(victims_);
    if (victimOcc_[e.table] >= cap) {
        // At its share: recycle the tenant's own coldest victim
        // rather than growing into other tenants' headroom.
        slot = lruAmong(victims_, [&e](const CacheEntry &s) {
            return s.table == e.table;
        });
    } else if (!slot) {
        slot = lruAmong(victims_, [](const CacheEntry &) { return true; });
    }
    pv_assert(slot != nullptr, "victim buffer bookkeeping broke");
    flushVictimSlot(*slot);
    *slot = e;
    slot->valid = true;
    slot->prefetched = false;
    ++victimOcc_[e.table];
    return true;
}

void
PvProxy::flushVictimSlot(CacheEntry &slot)
{
    if (!slot.valid)
        return;
    writeBack(slot);
    slot.valid = false;
    slot.dirty = false;
    pv_assert(victimOcc_[slot.table] > 0, "victim occupancy underflow");
    --victimOcc_[slot.table];
}

bool
PvProxy::reinstallVictim(unsigned line, unsigned table,
                         const PvOp &op)
{
    CacheEntry *v = findLine(victims_, line);
    if (!v)
        return false;
    pv_assert(v->table == table,
              "victim line %u owned by another tenant", line);
    CacheEntry saved = *v;
    v->valid = false;
    pv_assert(victimOcc_[table] > 0, "victim occupancy underflow");
    --victimOcc_[table];
    // Free the slot before allocating: the reinstall may evict a
    // PVCache line that wants this very victim slot.
    CacheEntry &e = allocateEntry(line, table);
    e.bytes = saved.bytes;
    e.ages = saved.ages;
    e.dirty = saved.dirty;
    ++victimHits;
    ++engineStats(table).victimHits;
    applyOp(e, op);
    return true;
}

PvProxy::CacheEntry *
PvProxy::pickVictim(unsigned table)
{
    auto any = [](const CacheEntry &) { return true; };
    if (!qos_.active() || numEngines() < 2) {
        // Legacy policy: global LRU over the shared PVCache.
        return lruAmong(entries_, any);
    }

    // Weighted partitioning: a tenant under its entitlement
    // reclaims the LRU line of whichever tenant is over its own
    // (one must exist: entitlements sum to the capacity); a tenant
    // at or over its entitlement replaces within its own lines.
    const unsigned ent =
        qos_.entitlement(table, PvQosArbiter::PvCache);
    if (cacheOcc_[table] < ent) {
        CacheEntry *v = lruAmong(entries_, [this](const CacheEntry &e) {
            return cacheOcc_[e.table] >
                   qos_.entitlement(e.table, PvQosArbiter::PvCache);
        });
        if (v)
            return v;
    }
    if (CacheEntry *v = lruAmong(entries_, [table](const CacheEntry &e) {
            return e.table == table;
        }))
        return v;
    // Transient corner after a contract change mid-flight (the
    // tenant owns no lines and nobody is over-entitled): fall back
    // to global LRU rather than fail.
    return lruAmong(entries_, any);
}

PvProxy::CacheEntry &
PvProxy::allocateEntry(unsigned line, unsigned table)
{
    CacheEntry *victim = freeEntry(entries_);
    if (!victim) {
        victim = pickVictim(table);
        evictEntry(*victim, /*retain=*/true);
    }
    victim->valid = true;
    victim->line = line;
    victim->table = table;
    victim->dirty = false;
    victim->prefetched = false;
    victim->lastTouch = ++touchCounter_;
    victim->bytes.fill(0);
    victim->ages.fill(0xff); // everything "old" until touched
    ++cacheOcc_[table];
    EngineStats &es = engineStats(table);
    if (cacheOcc_[table] > es.pvCachePeak.value())
        es.pvCachePeak.set(cacheOcc_[table]);
    return *victim;
}

void
PvProxy::applyOp(CacheEntry &e, const PvOp &op)
{
    e.lastTouch = ++touchCounter_;
    // Refresh the high-watermark on hits too: a stats reset zeroes
    // the peak while the tenant's lines stay resident, and a
    // well-protected working set may never allocate again during
    // the measurement phase.
    EngineStats &es = engineStats(e.table);
    if (cacheOcc_[e.table] > es.pvCachePeak.value())
        es.pvCachePeak.set(cacheOcc_[e.table]);
    op.target->complete(op, PvLineView{e.bytes.data(), &e.dirty,
                                       &e.ages});
}

void
PvProxy::dropOp(unsigned table, const PvOp &op, bool fairness)
{
    ++droppedOps;
    ++engineStats(table).drops;
    if (fairness) {
        ++fairnessDrops;
        ++engineStats(table).qosDrops;
    }
    op.target->complete(op, PvLineView{nullptr, nullptr, nullptr});
}

PvProxy::InFlight *
PvProxy::findInFlight(unsigned line)
{
    for (auto &f : inFlight_) {
        if (f.valid && f.line == line)
            return &f;
    }
    return nullptr;
}

unsigned
PvProxy::pendingOpCount(unsigned table) const
{
    unsigned n = 0;
    for (const auto &f : inFlight_) {
        if (f.valid && f.table == table)
            n += unsigned(f.pendingOps.size());
    }
    return n;
}

unsigned
PvProxy::inFlightCount(unsigned table) const
{
    unsigned n = 0;
    for (const auto &f : inFlight_) {
        if (f.valid && f.table == table)
            ++n;
    }
    return n;
}

unsigned
PvProxy::fairShare(unsigned capacity) const
{
    // Static reservation: one slot per other tenant, but never more
    // than half the buffer — a lone busy engine must keep a usable
    // share even on a proxy with many registered (idle) tenants.
    unsigned others = numEngines() > 0 ? numEngines() - 1 : 0;
    unsigned reserve = std::min(others, capacity / 2);
    return capacity - reserve;
}

unsigned
PvProxy::shareLimit(unsigned table, PvQosArbiter::Resource r) const
{
    if (qos_.active())
        return qos_.entitlement(table, r);
    switch (r) {
      case PvQosArbiter::PvCache:
        return params_.pvCacheEntries;
      case PvQosArbiter::Mshrs:
        return fairShare(params_.mshrs);
      case PvQosArbiter::PatternBuffer:
      default:
        return fairShare(params_.patternBufferEntries);
    }
}

void
PvProxy::access(const PvRequest &req)
{
    pv_assert(req.table < numEngines(), "table-id %u not registered",
              req.table);
    Engine &eng = engines_[req.table];
    pv_assert(req.set < eng.layout.numSets(),
              "set %u out of range for %s", req.set,
              eng.info.name.c_str());
    ++operations;
    ++eng.stats->operations;

    if (req.cls == PvReqClass::Prefetch) {
        issuePrefetch(req.table, req.set);
        return;
    }
    pv_assert(req.op.target != nullptr, "Demand PvRequest needs an op");
    accessDemand(req.table, req.set, req.op);
}

void
PvProxy::accessDemand(unsigned table, unsigned set, const PvOp &op)
{
    Engine &eng = engines_[table];
    unsigned line = region_.lineOf(eng.layout.setAddress(set));
    if (CacheEntry *e = findLine(entries_, line)) {
        ++pvCacheHits;
        ++eng.stats->hits;
        if (e->prefetched) {
            // First demand reference to a speculative fill.
            e->prefetched = false;
            ++prefetchUseful;
            ++eng.stats->prefetchUseful;
        }
        applyOp(*e, op);
        maybePrefetch(table, set);
        return;
    }
    ++pvCacheMisses;
    ++eng.stats->misses;

    if (shareLimit(table, PvQosArbiter::PvCache) == 0) {
        // A best-effort tenant entitled to no PVCache entries never
        // allocates: every miss is a predictor miss (starved, not
        // deadlocked — the op still completes). Applies in both
        // modes, so starvation is mode-independent.
        dropOp(table, op, true);
        return;
    }

    // A victim-buffer hit needs no fetch; in timing mode the miss
    // may instead join a fetch in flight or be dropped.
    if (!reinstallVictim(line, table, op) &&
        (!isTiming() || admitDemand(line, table, op)))
        fetch(line, table, PvReqClass::Demand, &op);
    // Speculate only after the demand fetch has claimed its MSHR:
    // prefetches see post-demand occupancy by construction.
    maybePrefetch(table, set);
}

bool
PvProxy::admitDemand(unsigned line, unsigned table, const PvOp &op)
{
    // Join an in-flight fetch for the same line when possible.
    if (InFlight *f = findInFlight(line)) {
        if (pendingOps_ >= params_.patternBufferEntries) {
            dropOp(table, op, false);
            return false;
        }
        if (pendingOpCount(table) >=
            shareLimit(table, PvQosArbiter::PatternBuffer)) {
            dropOp(table, op, true);
            return false;
        }
        ++coalescedOps;
        f->pendingOps.push_back(op);
        ++pendingOps_;
        return false;
    }

    if (numInFlight_ >= params_.mshrs ||
        pendingOps_ >= params_.patternBufferEntries) {
        // No MSHR / pattern-buffer space: report a predictor miss
        // rather than stalling the engine (paper Section 2.2).
        dropOp(table, op, false);
        return false;
    }
    if (inFlightCount(table) >=
            shareLimit(table, PvQosArbiter::Mshrs) ||
        pendingOpCount(table) >=
            shareLimit(table, PvQosArbiter::PatternBuffer)) {
        // This tenant already holds its share of the MSHR file or
        // pattern buffer — the legacy fair reservation, or its QoS
        // entitlement once any tenant carries weights/floors; the
        // remaining slots belong to the other tenants.
        dropOp(table, op, true);
        return false;
    }
    return true;
}

void
PvProxy::maybePrefetch(unsigned table, unsigned set)
{
    if (params_.prefetchDepth == 0)
        return;
    StrideState &st = engines_[table].stride;
    if (!st.seen) {
        st.seen = true;
        st.lastSet = set;
        return;
    }
    int stride = int(set) - int(st.lastSet);
    if (stride == 0) {
        // Same-set pairs (a find followed by its mutate) carry no
        // direction; keep the detector state for the next hop.
        return;
    }
    // Two flavors of sequential walk: an exact stride repeat
    // (regular table scan), or two short forward hops — real code
    // advances through variable-length basic blocks, so consecutive
    // set deltas are rarely equal even on a straight-line walk.
    const bool stable = stride == st.lastStride;
    const bool sequential =
        stride > 0 && stride <= kSequentialWindow &&
        st.lastStride > 0 && st.lastStride <= kSequentialWindow;
    st.lastStride = stride;
    st.lastSet = set;
    if (!stable && !sequential)
        return;
    const long num_sets = long(engines_[table].layout.numSets());
    for (unsigned k = 1; k <= params_.prefetchDepth; ++k) {
        long next = stable ? long(set) + long(stride) * long(k)
                           : long(set) + long(k);
        if (next < 0 || next >= num_sets)
            break;
        issuePrefetch(table, unsigned(next));
    }
}

void
PvProxy::issuePrefetch(unsigned table, unsigned set)
{
    Engine &eng = engines_[table];
    unsigned line = region_.lineOf(eng.layout.setAddress(set));
    if (findLine(entries_, line) || findLine(victims_, line) ||
        findInFlight(line))
        return;
    // Low-priority by construction: a tenant entitled to no PVCache
    // entries never speculates, and in timing mode a speculative
    // fetch never takes the last free MSHR and is charged against
    // the owning tenant's MSHR entitlement — a zero-entitlement
    // tenant's prefetches drop first, and demand traffic always
    // keeps headroom.
    if (shareLimit(table, PvQosArbiter::PvCache) == 0 ||
        (isTiming() &&
         (numInFlight_ + 1 >= params_.mshrs ||
          inFlightCount(table) >=
              shareLimit(table, PvQosArbiter::Mshrs)))) {
        ++prefetchDrops;
        ++eng.stats->prefetchDrops;
        return;
    }
    fetch(line, table, PvReqClass::Prefetch, nullptr);
}

void
PvProxy::fetch(unsigned line, unsigned table, PvReqClass cls,
               const PvOp *op)
{
    pv_assert(memSide_ != nullptr, "PVProxy has no memory side");
    ++memRequests;
    auto *pkt = allocPacket(MemCmd::ReadReq, lineAddress(line),
                            kInvalidCore);
    pkt->isPrefetch = cls == PvReqClass::Prefetch;
    pkt->coherent = false;
    pkt->src = this;
    pkt->issueTick = curTick();
    if (isTiming()) {
        InFlight *f = nullptr;
        for (auto &slot : inFlight_) {
            if (!slot.valid) {
                f = &slot;
                break;
            }
        }
        pv_assert(f != nullptr, "%s: fetch with every MSHR busy",
                  name().c_str());
        f->valid = true;
        f->line = line;
        f->table = table;
        f->cls = cls;
        if (op) {
            f->pendingOps.push_back(*op);
            ++pendingOps_;
        }
        ++numInFlight_;
        sendQueue_.push(pkt);
        return;
    }
    memSide_->functionalAccess(*pkt);
    install(line, table, cls, *pkt, op, op ? 1 : 0);
    freePacket(pkt);
}

void
PvProxy::install(unsigned line, unsigned table, PvReqClass cls,
                 const Packet &pkt, const PvOp *ops, size_t num_ops)
{
    CacheEntry &e = allocateEntry(line, table);
    if (pkt.hasData())
        e.bytes = *pkt.data;
    EngineStats &es = engineStats(table);
    if (cls == PvReqClass::Prefetch) {
        ++prefetchFills;
        ++es.prefetchFills;
        // Demand-fill latency stays undiluted: speculative fills
        // contribute no fill_latency_ticks.
        if (num_ops == 0) {
            e.prefetched = true;
        } else {
            // A demand op coalesced onto the speculative fetch
            // while it was in flight: timely prefetch.
            ++prefetchUseful;
            ++es.prefetchUseful;
        }
    } else {
        ++fills;
        ++es.fills;
        es.fillLatencyTicks += curTick() - pkt.issueTick;
    }
    for (size_t i = 0; i < num_ops; ++i)
        applyOp(e, ops[i]);
}

void
PvProxy::recvResponse(PacketPtr pkt)
{
    unsigned line = region_.lineOf(blockAlign(pkt->addr));
    InFlight *f = findInFlight(line);
    pv_assert(f != nullptr, "PVProxy response for line %u with no MSHR",
              line);

    // The MSHR is released before its ops run: they run from the
    // scratch vector, and the MSHR keeps the scratch's capacity. A
    // response that re-entered here would find the scratch empty and
    // only allocate.
    const unsigned table = f->table;
    const PvReqClass cls = f->cls;
    std::vector<PvOp> ops;
    ops.swap(opScratch_);
    ops.swap(f->pendingOps);
    f->valid = false;
    --numInFlight_;
    pendingOps_ -= unsigned(ops.size());

    install(line, table, cls, *pkt, ops.data(), ops.size());
    ops.clear();
    opScratch_.swap(ops);
    freePacket(pkt);
}

void
PvProxy::checkOccupancy() const
{
    const char *who = name().c_str();
    unsigned cached_total = 0, retained_total = 0;
    for (unsigned t = 0; t < numEngines(); ++t) {
        unsigned cached = 0, retained = 0;
        for (const auto &e : entries_)
            cached += e.valid && e.table == t;
        for (const auto &v : victims_)
            retained += v.valid && v.table == t;
        if (cached != cacheOcc_[t] || retained != victimOcc_[t]) {
            panic("%s: tenant %s holds %u PVCache and %u victim "
                  "entries but is charged %u and %u",
                  who, engines_[t].info.name.c_str(), cached, retained,
                  cacheOcc_[t], victimOcc_[t]);
        }
        cached_total += cached;
        retained_total += retained;
    }
    unsigned fetching = 0, waiting = 0;
    for (const auto &f : inFlight_) {
        if (f.valid) {
            ++fetching;
            waiting += unsigned(f.pendingOps.size());
        } else if (!f.pendingOps.empty()) {
            panic("%s: a free MSHR holds %zu ops", who,
                  f.pendingOps.size());
        }
    }
    if (fetching != numInFlight_ || waiting != pendingOps_) {
        panic("%s: %u fetches in flight with %u ops waiting, but "
              "counted %u and %u",
              who, fetching, waiting, numInFlight_, pendingOps_);
    }
    if (cached_total > params_.pvCacheEntries ||
        retained_total > params_.victimEntries ||
        fetching > params_.mshrs ||
        waiting > params_.patternBufferEntries) {
        panic("%s: occupancy over capacity: PVCache %u/%u, victims "
              "%u/%u, MSHRs %u/%u, pattern buffer %u/%u",
              who, cached_total, params_.pvCacheEntries,
              retained_total, params_.victimEntries, fetching,
              params_.mshrs, waiting, params_.patternBufferEntries);
    }
}

void
PvProxy::flush()
{
    for (auto &e : entries_)
        evictEntry(e, /*retain=*/false);
    for (auto &s : victims_)
        flushVictimSlot(s);
}

PvProxy::StorageBreakdown
PvProxy::storageBreakdown() const
{
    StorageBreakdown b;
    // PVCache data: only the live bits of each packed line count as
    // dedicated storage (473 bits per line for the 11-way PHT). A
    // shared PVCache line must hold the widest tenant's packing.
    unsigned used_bits = 0;
    for (const auto &e : engines_)
        used_bits = std::max(used_bits, e.info.usedBitsPerLine);
    b.pvCacheData = uint64_t(params_.pvCacheEntries) * used_bits;
    // One tag per PVCache entry identifies the region line it holds:
    // log2(lines) bits plus a valid bit (the line index encodes the
    // tenant, so no separate table-id field is needed).
    unsigned lines = std::max(region_.linesUsed(), 2u);
    unsigned tag_bits = unsigned(ceilLog2(lines)) + 1;
    b.tags = uint64_t(params_.pvCacheEntries) * tag_bits;
    b.dirtyBits = params_.pvCacheEntries;
    // Each MSHR: valid + line index + the full line address it is
    // fetching + per-op bookkeeping links into the pattern buffer.
    unsigned mshr_bits = 1 + unsigned(ceilLog2(lines)) + 42 +
                         4 * (1 + unsigned(ceilLog2(std::max(
                                      2u,
                                      params_.patternBufferEntries))));
    b.mshrs = uint64_t(params_.mshrs) * mshr_bits;
    // Evict buffer holds full lines.
    b.evictBuffer =
        uint64_t(params_.evictBufferEntries) * kBlockBytes * 8;
    // Pattern buffer stages one 32-bit pattern per pending op.
    b.patternBuffer = uint64_t(params_.patternBufferEntries) * 32;
    // Victim buffer holds full lines plus tag/dirty metadata.
    b.victimBuffer = uint64_t(params_.victimEntries) *
                     (kBlockBytes * 8 + tag_bits + 1);
    return b;
}

} // namespace pvsim
