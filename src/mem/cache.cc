#include "mem/cache.hh"

#include <algorithm>

#include "mem/packet_pool.hh"

#include "util/intmath.hh"
#include "util/logging.hh"

namespace pvsim {

Cache::Cache(SimContext &ctx, const CacheParams &params,
             const AddrMap *addr_map)
    : SimObject(ctx, nullptr, params.name),
      demandAccesses(this, "demand_accesses", "demand reads+writes"),
      demandHits(this, "demand_hits", "demand hits"),
      demandMisses(this, "demand_misses", "demand misses"),
      readAccesses(this, "read_accesses", "demand reads"),
      readHits(this, "read_hits", "demand read hits"),
      readMisses(this, "read_misses", "demand read misses"),
      writeAccesses(this, "write_accesses", "demand writes"),
      writeHits(this, "write_hits", "demand write hits"),
      writeMisses(this, "write_misses", "demand write misses"),
      upgrades(this, "upgrades", "write-permission upgrades sent"),
      prefetchIssued(this, "prefetch_issued",
                     "prefetches accepted by this cache"),
      prefetchDropped(this, "prefetch_dropped",
                      "prefetches dropped (present or in flight)"),
      prefetchFills(this, "prefetch_fills",
                    "blocks filled by prefetch"),
      coveredMisses(this, "covered_misses",
                    "demand reads hitting an untouched prefetched "
                    "block"),
      lateCovered(this, "late_covered",
                  "demand reads joining an in-flight prefetch"),
      overpredictions(this, "overpredictions",
                      "prefetched blocks evicted/invalidated unused"),
      evictions(this, "evictions", "valid blocks replaced"),
      writebacksOut(this, "writebacks_out",
                    "dirty blocks written to the level below"),
      cleanEvictsOut(this, "clean_evicts_out",
                     "clean-eviction notices sent below"),
      pvWritebacksDropped(this, "pv_writebacks_dropped",
                          "dirty PV victims dropped on-chip "
                          "(virtualization-aware ablation)"),
      invalidationsSent(this, "invalidations_sent",
                        "directory invalidations to upstream caches"),
      invalidationsRecv(this, "invalidations_recv",
                        "invalidations received from below"),
      downgradesRecv(this, "downgrades_recv",
                     "write-permission downgrades received"),
      recalls(this, "recalls",
              "dirty upstream copies pulled into this level"),
      mshrCoalesced(this, "mshr_coalesced",
                    "requests merged into an existing MSHR"),
      mshrRejects(this, "mshr_rejects",
                  "requests refused because all MSHRs were busy"),
      requestsApp(this, "requests_app",
                  "requests served for application addresses"),
      requestsPv(this, "requests_pv",
                 "requests served for PVTable addresses"),
      missesApp(this, "misses_app", "misses to application addresses"),
      missesPv(this, "misses_pv", "misses to PVTable addresses"),
      writebacksApp(this, "writebacks_app",
                    "writebacks below, application addresses"),
      writebacksPv(this, "writebacks_pv",
                   "writebacks below, PVTable addresses"),
      missLatency(this, "miss_latency",
                  "demand miss latency (cycles)", 0, 1600, 50),
      params_(params), addrMap_(addr_map),
      mshrs_(params.numMshrs), sendQueue_(ctx.events(), name(), this)
{
    pv_assert(params_.sizeBytes % (uint64_t(params_.assoc) *
                                   kBlockBytes) == 0,
              "cache size must be a multiple of assoc * block size");
    numSets_ = unsigned(params_.sizeBytes /
                        (uint64_t(params_.assoc) * kBlockBytes));
    pv_assert(numSets_ > 0, "cache must have at least one set");
    pv_assert(params_.tagLatency > 0,
              "%s: a tag lookup cannot take zero ticks", name().c_str());
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
    blocks_.resize(size_t(numSets_) * params_.assoc);
    tags_.assign(blocks_.size(), kInvalidTag);
    lastTouch_.assign(blocks_.size(), 0);
    bankFreeAt_.assign(std::max(1u, params_.banks), 0);
    pv_assert(addrMap_ != nullptr, "%s: needs an address map",
              name().c_str());
}

int
Cache::attachClient(MemClient *client)
{
    // A slot must fit CacheBlk::ownerSlot, and the sharer array is
    // sized here, before any block is installed.
    pv_assert(clients_.size() < size_t(INT16_MAX),
              "too many directory clients");
    pv_assert(accessCounter_ == 0,
              "%s: client attached after the first access",
              name().c_str());
    clients_.push_back(client);
    const unsigned words = unsigned(divideCeil(clients_.size(), 64));
    if (params_.directory && words != sharerWords_) {
        sharerWords_ = words;
        sharers_.assign(blocks_.size() * words, 0);
    }
    return int(clients_.size()) - 1;
}

// ---------------------------------------------------------------------
// Lookup helpers
// ---------------------------------------------------------------------

const CacheBlk *
Cache::peekBlock(Addr block_addr) const
{
    Addr aligned = blockAlign(block_addr);
    const size_t base = setBase(setIndex(aligned));
    const Addr *tags = tags_.data() + base;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (tags[w] == aligned)
            return &blocks_[base + w];
    }
    return nullptr;
}

uint64_t
Cache::numValidBlocks() const
{
    return uint64_t(std::count_if(tags_.begin(), tags_.end(),
                                  [](Addr t) { return t != kInvalidTag; }));
}

std::vector<unsigned>
Cache::sharerSlots(Addr block_addr) const
{
    std::vector<unsigned> slots;
    const CacheBlk *blk = peekBlock(block_addr);
    if (!blk || sharerWords_ == 0)
        return slots;
    const uint64_t *words =
        sharers_.data() + frameOf(*blk) * sharerWords_;
    for (unsigned s = 0; s < clients_.size(); ++s)
        if ((words[s / 64] >> (s % 64)) & 1u)
            slots.push_back(s);
    return slots;
}

bool
Cache::quiesced() const
{
    return mshrs_.used() == 0 && pendingLookups_ == 0 &&
           sendQueue_.empty();
}

// ---------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------

void
Cache::countRequest(const Packet &pkt, bool hit)
{
    const bool is_pv = isPv(pkt.addr);
    if (is_pv)
        ++requestsPv;
    else
        ++requestsApp;
    if (!hit) {
        if (is_pv)
            ++missesPv;
        else
            ++missesApp;
    }

    if (pkt.isPrefetch || pkt.isWriteback() || pkt.isCleanEvict())
        return;

    ++demandAccesses;
    if (pkt.isWrite() || pkt.isUpgrade()) {
        ++writeAccesses;
        if (hit)
            ++writeHits;
        else
            ++writeMisses;
    } else {
        ++readAccesses;
        if (hit)
            ++readHits;
        else
            ++readMisses;
    }
    if (hit)
        ++demandHits;
    else
        ++demandMisses;
}

// ---------------------------------------------------------------------
// Coherence helpers (directory lives in the inclusive L2)
// ---------------------------------------------------------------------

void
Cache::invalidateSharers(CacheBlk &blk, int keep_slot)
{
    if (!params_.directory)
        return;
    if (blk.ownerSlot >= 0 && blk.ownerSlot != keep_slot) {
        // The owner may hold newer data; treat it as merged here.
        blk.dirty = true;
        blk.ownerSlot = -1;
    }
    // keep_slot's bit in word w, if it is there.
    auto keep_bit = [keep_slot](unsigned w) -> uint64_t {
        return keep_slot >= 0 && unsigned(keep_slot) / 64 == w
                   ? 1ull << (keep_slot % 64)
                   : 0;
    };
    // An invalidation may reach back into this cache (an L1's
    // listener writing a PVTable line through its PvProxy), so each
    // word is re-read after every invalidation, the walk goes up
    // from the last slot it visited, and the bits are cleared only
    // after the walk.
    const size_t f = frameOf(blk);
    uint64_t *words = sharersOf(f);
    for (unsigned w = 0; w < sharerWords_; ++w) {
        uint64_t visited = keep_bit(w);
        for (uint64_t left; (left = words[w] & ~visited) != 0;) {
            const unsigned bit = unsigned(__builtin_ctzll(left));
            visited |= (2ull << bit) - 1; // bits 0..bit
            clients_[size_t(w) * 64 + bit]->recvInvalidate(tags_[f]);
            ++invalidationsSent;
        }
    }
    for (unsigned w = 0; w < sharerWords_; ++w)
        words[w] &= keep_bit(w);
    if (keep_slot < 0)
        blk.ownerSlot = -1;
}

void
Cache::recallIfDirtyAbove(CacheBlk &blk)
{
    if (!params_.directory || blk.ownerSlot < 0)
        return;
    clients_[blk.ownerSlot]->recvDowngrade(tags_[frameOf(blk)]);
    blk.dirty = true; // merged modified data
    blk.ownerSlot = -1;
    ++recalls;
}

// ---------------------------------------------------------------------
// Core state machine, shared between functional and timing modes
// ---------------------------------------------------------------------

CacheBlk *
Cache::lookup(Packet &pkt)
{
    CacheBlk *blk = findBlock(pkt.addr);

    // Upgrade with the line still present needs no fill; with the
    // line lost (race with eviction) it degenerates to a write miss.
    if (pkt.isUpgrade() && !blk)
        pkt.cmd = MemCmd::WriteReq;

    if (listener_ && !pkt.isPrefetch) {
        listener_->onAccess(pkt.pc, pkt.addr,
                            pkt.isWrite() || pkt.isUpgrade(),
                            blk != nullptr);
        // In functional mode the listener may have prefetched this
        // very block (a perfectly timely prefetch): re-probe, so it
        // counts as a covered miss through the hit path. A timing
        // prefetch only allocates an MSHR, so this finds nothing.
        if (!blk)
            blk = findBlock(pkt.addr);
    }
    return blk;
}

void
Cache::completeAccess_(Packet &pkt, CacheBlk &blk)
{
    const size_t f = frameOf(blk);
    lastTouch_[f] = ++accessCounter_;

    switch (pkt.cmd) {
      case MemCmd::ReadReq:
      case MemCmd::PrefetchReq:
        if (params_.directory) {
            if (blk.ownerSlot >= 0 && blk.ownerSlot != pkt.srcSlot)
                recallIfDirtyAbove(blk);
            if (pkt.coherent && pkt.srcSlot >= 0)
                setSharer(f, pkt.srcSlot);
        }
        if (!pkt.isPrefetch && blk.wasPrefetched) {
            ++coveredMisses;
            blk.wasPrefetched = false;
        }
        if (blk.hasData())
            pkt.setData(blk.data->data());
        pkt.grantsWritable = false;
        break;

      case MemCmd::WriteReq:
      case MemCmd::UpgradeReq:
        if (params_.directory) {
            invalidateSharers(blk, pkt.srcSlot);
            if (pkt.coherent && pkt.srcSlot >= 0) {
                setSharer(f, pkt.srcSlot);
                blk.ownerSlot = int16_t(pkt.srcSlot);
            }
        } else {
            // L1 store: the caller guarantees write permission.
            blk.dirty = true;
        }
        blk.wasPrefetched = false;
        if (pkt.cmd == MemCmd::WriteReq && blk.hasData())
            pkt.setData(blk.data->data());
        pkt.grantsWritable = true;
        break;

      default:
        panic("completeAccess on unexpected cmd %s",
              memCmdName(pkt.cmd));
    }
    pkt.makeResponse();
}

CacheBlk &
Cache::installBlock(Addr block_addr, bool writable, bool was_prefetch,
                    const Packet::Data *data)
{
    Addr aligned = blockAlign(block_addr);
    const size_t base = setBase(setIndex(aligned));
    const unsigned assoc = params_.assoc;

    CacheBlk *frame = nullptr;
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags_[base + w] == kInvalidTag) {
            frame = &blocks_[base + w];
            break;
        }
    }
    if (!frame) {
        // LRU: the least recently touched way, ties to the lowest.
        const uint64_t *touch = lastTouch_.data() + base;
        unsigned best = 0;
        for (unsigned w = 1; w < assoc; ++w) {
            if (touch[w] < touch[best])
                best = w;
        }
        frame = &blocks_[base + best];
        evictBlock(*frame);
    }

    // The frame is empty here, so it has no sharer bits.
    const size_t f = frameOf(*frame);
    tags_[f] = aligned;
    frame->dirty = false;
    frame->writable = writable;
    frame->wasPrefetched = was_prefetch;
    frame->ownerSlot = -1;
    lastTouch_[f] = ++accessCounter_;
    if (data)
        frame->ensureData() = *data;
    else
        frame->data.reset();
    if (was_prefetch)
        ++prefetchFills;
    releaseBlock(aligned); // the block may now hit
    return *frame;
}

void
Cache::evictBlock(CacheBlk &blk)
{
    const size_t f = frameOf(blk);
    pv_assert(tags_[f] != kInvalidTag, "evicting an invalid block");
    ++evictions;

    // Inclusive directory: remove all upstream copies first.
    invalidateSharers(blk, -1);

    // An access those invalidations caused may have evicted this
    // frame already (see invalidateSharers), or refilled it: evict
    // what the frame holds now.
    const Addr baddr = tags_[f];
    if (baddr == kInvalidTag)
        return;

    if (blk.wasPrefetched)
        ++overpredictions;

    const bool is_pv = isPv(baddr);

    if (blk.dirty) {
        if (params_.dropPvWritebacks && is_pv) {
            // Virtualization-aware option (paper Section 2.2): the
            // dirty predictor line is silently discarded; predictor
            // data is advisory so only effectiveness is affected.
            ++pvWritebacksDropped;
        } else {
            auto *wb = allocPacket(MemCmd::Writeback, baddr,
                                   kInvalidCore);
            wb->coherent = !params_.directory;
            wb->srcSlot = slotAtLower_;
            if (blk.hasData())
                wb->setData(blk.data->data());
            ++writebacksOut;
            if (is_pv)
                ++writebacksPv;
            else
                ++writebacksApp;
            emitDown(wb);
        }
    } else if (!params_.directory && memSide_) {
        // Clean-eviction notice keeps the L2 directory exact.
        auto *ce = allocPacket(MemCmd::CleanEvict, baddr,
                               kInvalidCore);
        ce->srcSlot = slotAtLower_;
        ++cleanEvictsOut;
        emitDown(ce);
    }

    if (listener_)
        listener_->onEvict(baddr);

    invalidateBlock_(blk);
}

void
Cache::handleWriteback(Packet &pkt)
{
    CacheBlk *blk = findBlock(pkt.addr);
    countRequest(pkt, true);

    // The writer above drops its copy.
    auto drop_sharer = [&] {
        if (params_.directory && pkt.srcSlot >= 0) {
            clearSharer(frameOf(*blk), pkt.srcSlot);
            if (blk->ownerSlot == pkt.srcSlot)
                blk->ownerSlot = -1;
        }
    };

    if (pkt.isCleanEvict()) {
        if (blk)
            drop_sharer();
        return;
    }

    // Dirty writeback from above.
    if (blk) {
        blk->dirty = true;
        if (pkt.hasData())
            blk->ensureData() = *pkt.data;
        drop_sharer();
    } else {
        // Allocate-on-writeback (e.g. a PVProxy line after the L2
        // copy was evicted, or a race with this level's eviction).
        CacheBlk &nb = installBlock(pkt.addr, true, false,
                                    pkt.data.get());
        nb.dirty = true;
    }
}

void
Cache::emitDown(PacketPtr pkt)
{
    if (!memSide_) {
        freePacket(pkt);
        return;
    }
    if (!isTiming()) {
        memSide_->functionalAccess(*pkt);
        freePacket(pkt);
        return;
    }
    sendDownstream(pkt);
}

// ---------------------------------------------------------------------
// Functional mode
// ---------------------------------------------------------------------

void
Cache::functionalAccess(Packet &pkt)
{
    if (pkt.isWriteback() || pkt.isCleanEvict()) {
        handleWriteback(pkt);
        return;
    }

    if (CacheBlk *blk = lookup(pkt)) {
        if ((pkt.isWrite() || pkt.isUpgrade()) &&
            !params_.directory && !blk->writable) {
            // Store hit without write permission: upgrade below so
            // remote sharers are invalidated (keeps the directory
            // and cross-core generation-ending behaviour exact even
            // with zero-latency accesses).
            pv_assert(memSide_ != nullptr, "upgrade with no mem side");
            Packet up(MemCmd::UpgradeReq, blockAlign(pkt.addr),
                      pkt.coreId);
            up.pc = pkt.pc;
            up.coherent = pkt.coherent;
            up.srcSlot = slotAtLower_;
            memSide_->functionalAccess(up);
            blk->writable = true;
        }
        countRequest(pkt, true);
        completeAccess_(pkt, *blk);
        return;
    }

    countRequest(pkt, false);

    // Miss: fetch the block from below, install, then complete.
    pv_assert(memSide_ != nullptr, "%s: miss with no memory side",
              name().c_str());
    MemCmd down_cmd = pkt.needsWritable() ? MemCmd::WriteReq
                                          : pkt.cmd;
    Packet dpkt(down_cmd, blockAlign(pkt.addr), pkt.coreId);
    dpkt.pc = pkt.pc;
    dpkt.isPrefetch = pkt.isPrefetch;
    dpkt.coherent = pkt.coherent;
    dpkt.srcSlot = slotAtLower_;
    memSide_->functionalAccess(dpkt);

    CacheBlk &nb = installBlock(pkt.addr, dpkt.grantsWritable,
                                pkt.isPrefetch, dpkt.data.get());
    completeAccess_(pkt, nb);
}

// ---------------------------------------------------------------------
// Timing mode
// ---------------------------------------------------------------------

Tick
Cache::bankReadyTick(Addr block_addr)
{
    unsigned bank = params_.banks > 1 ? bankIndex(block_addr) : 0;
    Tick ready = std::max(curTick(), bankFreeAt_[bank]);
    bankFreeAt_[bank] = ready + params_.tagLatency;
    return ready;
}

bool
Cache::recvRequest(PacketPtr pkt)
{
    pv_assert(isTiming(), "recvRequest in functional mode");
    pv_assert(pkt->isRequest(), "recvRequest with non-request %s",
              memCmdName(pkt->cmd));

    if (pkt->isWriteback() || pkt->isCleanEvict()) {
        // Writebacks are sunk immediately; backpressure comes from
        // the sender's queue, not from here.
        handleWriteback(*pkt);
        freePacket(pkt);
        return true;
    }

    // Structural backpressure: refuse when the MSHR file (including
    // accepted-but-unresolved lookups) is full and the request
    // cannot coalesce, or our own send queue is clogged.
    if (mshrBudgetFull() && !mshrs_.find(blockAlign(pkt->addr)) &&
        !findBlock(pkt->addr)) {
        ++mshrRejects;
        refusalMark_ = releaseSeq_;
        return false;
    }
    if (sendQueue_.size() >= params_.writeBufferEntries +
                                 params_.numMshrs) {
        ++mshrRejects;
        refusalMark_ = 0; // the block may well be present
        return false;
    }

    if (pkt->issueTick == 0)
        pkt->issueTick = curTick();

    ++pendingLookups_;
    const Cycles delay =
        bankReadyTick(pkt->addr) + params_.tagLatency - curTick();
    if (delay == 1) {
        // A one-tick lookup keeps its place among the next tick's
        // retries (event_queue.hh).
        ctx().events().deferToNextPass(
            name(), [this, pkt] { handleLookup(pkt); });
    } else {
        schedule(delay, [this, pkt] { handleLookup(pkt); });
    }
    return true;
}

bool
Cache::certainlyRefuses(const Packet &pkt, uint64_t &mark) const
{
    // Refused at `mark` by a full MSHR budget, the block was then in
    // neither an MSHR nor the tags. It stays refused while the
    // budget stays full and the block is not given an MSHR or
    // installed, and every such event is in the release log.
    if (mark == 0 || !mshrBudgetFull() ||
        releaseSeq_ - mark > kReleaseLog)
        return false;
    const Addr baddr = blockAlign(pkt.addr);
    for (uint64_t i = mark; i != releaseSeq_; ++i) {
        if (releaseLog_[i % kReleaseLog] == baddr)
            return false;
    }
    mark = releaseSeq_;
    return true;
}

void
Cache::releaseBlock(Addr baddr)
{
    releaseLog_[releaseSeq_++ % kReleaseLog] = baddr;
    ctx().events().noteRelease(*this);
}

bool
Cache::probeAccess(PacketPtr pkt)
{
    pv_assert(isTiming(), "probeAccess in functional mode");
    if (pkt->issueTick == 0)
        pkt->issueTick = curTick();

    if (CacheBlk *blk = lookup(*pkt)) {
        countRequest(*pkt, true);
        if ((pkt->isWrite() || pkt->isUpgrade()) &&
            !params_.directory && !blk->writable) {
            // Store hit without write permission: upgrade below.
            missToMshr_(pkt, MemCmd::UpgradeReq);
            return false;
        }
        completeAccess_(*pkt, *blk);
        return true;
    }

    countRequest(*pkt, false);
    missToMshr_(pkt, pkt->needsWritable() ? MemCmd::WriteReq
                                          : pkt->cmd);
    return false;
}

void
Cache::handleLookup(PacketPtr pkt)
{
    pv_assert(pendingLookups_ > 0, "lookup underflow");
    --pendingLookups_;
    ctx().events().noteRelease(*this);
    if (probeAccess(pkt)) {
        MemClient *dst = pkt->src;
        schedule(params_.dataLatency,
                 [dst, pkt] { dst->recvResponse(pkt); },
                 EventQueue::kPrioResponse);
    }
}

void
Cache::missToMshr_(PacketPtr pkt, MemCmd down_cmd)
{
    Addr baddr = blockAlign(pkt->addr);
    Mshr *mshr = mshrs_.find(baddr);
    if (mshr) {
        ++mshrCoalesced;
        if (mshr->prefetchOnly && !pkt->isPrefetch) {
            mshr->prefetchOnly = false;
            ++lateCovered;
        }
        mshr->needsWritable |= pkt->needsWritable();
        if (pkt->isPrefetch && pkt->src == nullptr) {
            // A source-less prefetch joining an in-flight miss is
            // redundant: the fill is already on its way and nobody
            // waits on this packet.
            ++prefetchDropped;
            freePacket(pkt);
            return;
        }
        // Demand requests — and prefetches forwarded from an upper
        // cache, whose MSHR stays in service until we answer —
        // queue as targets. Dropping a forwarded prefetch here
        // stranded the upper MSHR forever: its core deadlocked the
        // moment it touched that block (found as a once-in-8-runs
        // hang of the fig9 matched pairs).
        mshr->targets.push_back(pkt);
        return;
    }

    if (mshrs_.full()) {
        // Filled up since acceptance; retry the MSHR allocation only
        // (stats and listener hooks already ran exactly once) after
        // an MSHR frees or one for this block appears.
        ctx().events().park(name(), *this, [this, pkt, down_cmd] {
            missToMshr_(pkt, down_cmd);
        });
        return;
    }

    Mshr &m = mshrs_.allocate(baddr);
    releaseBlock(baddr); // later misses may coalesce
    m.needsWritable = pkt->needsWritable();
    m.prefetchOnly = pkt->isPrefetch;
    m.wasPrefetch = pkt->isPrefetch;
    // All upstream packets (including prefetches forwarded from an
    // L1) wait as targets and are answered at fill time.
    m.targets.push_back(pkt);

    if (down_cmd == MemCmd::UpgradeReq)
        ++upgrades;

    auto *dpkt = allocPacket(down_cmd, baddr, pkt->coreId);
    dpkt->pc = pkt->pc;
    dpkt->isPrefetch = pkt->isPrefetch;
    dpkt->coherent = pkt->coherent;
    dpkt->src = this;
    dpkt->srcSlot = slotAtLower_;
    dpkt->issueTick = curTick();
    sendDownstream(dpkt);
}

void
Cache::sendDownstream(PacketPtr pkt)
{
    pv_assert(memSide_ != nullptr, "%s: no memory side",
              name().c_str());
    sendQueue_.push(pkt);
}

void
Cache::recvResponse(PacketPtr pkt)
{
    Addr baddr = blockAlign(pkt->addr);
    Mshr *mshr = mshrs_.find(baddr);
    pv_assert(mshr != nullptr, "%s: response with no MSHR for %llx",
              name().c_str(), (unsigned long long)baddr);

    // The block may already be valid here (an upgrade, or a race
    // where another path installed it); update in place then, never
    // create a duplicate frame for the same tag.
    CacheBlk *blk = findBlock(baddr);
    if (blk) {
        blk->writable |= pkt->grantsWritable;
        if (pkt->hasData())
            blk->ensureData() = *pkt->data;
    } else {
        blk = &installBlock(baddr, pkt->grantsWritable,
                            mshr->prefetchOnly, pkt->data.get());
    }

    // Complete the waiting targets in arrival order. They move out
    // through the scratch vector, which leaves the entry an empty
    // vector with capacity; a drain that re-entered here would find
    // the scratch empty and only allocate.
    std::vector<PacketPtr> targets;
    targets.swap(drainScratch_);
    targets.swap(mshr->targets);
    mshrs_.deallocate(*mshr);
    ctx().events().noteRelease(*this);

    for (PacketPtr t : targets) {
        if (t->isPrefetchReq() && t->src == nullptr) {
            // Self-issued prefetch: the fill itself was the point.
            freePacket(t);
            continue;
        }
        completeAccess_(*t, *blk);
        if (!t->isPrefetch)
            missLatency.sample(curTick() - t->issueTick);
        MemClient *dst = t->src;
        pv_assert(dst != nullptr, "target with no source client");
        schedule(params_.dataLatency,
                 [dst, t] { dst->recvResponse(t); },
                 EventQueue::kPrioResponse);
    }
    targets.clear();
    drainScratch_.swap(targets);

    freePacket(pkt);
}

void
Cache::recvInvalidate(Addr block_addr)
{
    CacheBlk *blk = findBlock(block_addr);
    if (!blk)
        return;
    ++invalidationsRecv;
    if (blk->wasPrefetched)
        ++overpredictions;
    if (listener_)
        listener_->onInvalidate(blockAlign(block_addr));
    invalidateBlock_(*blk);
}

void
Cache::recvDowngrade(Addr block_addr)
{
    CacheBlk *blk = findBlock(block_addr);
    if (!blk)
        return;
    ++downgradesRecv;
    blk->writable = false;
    blk->dirty = false; // merged into the level below by the caller
}

// ---------------------------------------------------------------------
// Prefetch side door
// ---------------------------------------------------------------------

bool
Cache::issuePrefetch(Addr block_addr, Addr pc)
{
    Addr baddr = blockAlign(block_addr);
    if (findBlock(baddr)) {
        ++prefetchDropped;
        return false;
    }

    if (!isTiming()) {
        pv_assert(memSide_ != nullptr, "prefetch with no memory side");
        ++prefetchIssued;
        Packet dpkt(MemCmd::PrefetchReq, baddr, kInvalidCore);
        dpkt.pc = pc;
        dpkt.isPrefetch = true;
        dpkt.srcSlot = slotAtLower_;
        countRequest(dpkt, false);
        memSide_->functionalAccess(dpkt);
        installBlock(baddr, false, true, dpkt.data.get());
        return true;
    }

    if (mshrs_.find(baddr)) {
        ++prefetchDropped;
        return false;
    }
    if (mshrs_.full()) {
        ++prefetchDropped;
        return false;
    }

    ++prefetchIssued;
    Mshr &m = mshrs_.allocate(baddr);
    releaseBlock(baddr);
    m.prefetchOnly = true;
    m.wasPrefetch = true;

    auto *dpkt = allocPacket(MemCmd::PrefetchReq, baddr, kInvalidCore);
    dpkt->pc = pc;
    dpkt->isPrefetch = true;
    dpkt->src = this;
    dpkt->srcSlot = slotAtLower_;
    dpkt->issueTick = curTick();
    countRequest(*dpkt, false);
    sendDownstream(dpkt);
    return true;
}

} // namespace pvsim
