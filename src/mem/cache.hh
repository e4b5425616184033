/**
 * @file
 * Set-associative, non-blocking, write-back write-allocate cache.
 * One class serves as private L1I/L1D and as the shared, banked,
 * inclusive L2 (with an embedded MSI-style directory over the
 * attached coherent clients). Supports both functional mode
 * (synchronous, zero latency, identical state transitions) and
 * timing mode (event-driven with tag/data/bank latencies and MSHR
 * occupancy).
 *
 * The PVProxy injects its requests here exactly like an L1 would
 * ("on the backside of the L1", paper Section 1) — the cache is
 * oblivious to PV data except for statistics classification, which
 * asks the address map (isPv).
 */

#ifndef PVSIM_MEM_CACHE_HH
#define PVSIM_MEM_CACHE_HH

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache_blk.hh"
#include "mem/mshr.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"

namespace pvsim {

/** Static configuration of one cache. */
struct CacheParams {
    std::string name = "cache";
    uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    /** Cycles from acceptance to tag resolution. */
    Cycles tagLatency = 1;
    /** Additional cycles from tag resolution to a hit response. */
    Cycles dataLatency = 1;
    unsigned numMshrs = 16;
    unsigned writeBufferEntries = 16;
    /** Interleaved banks (block-granularity); L2 uses 8 (Table 1). */
    unsigned banks = 1;
    /**
     * Inclusive directory behaviour: track upstream sharers, send
     * back-invalidations on eviction, handle recalls/upgrades. Used
     * by the shared L2.
     */
    bool directory = false;
    /**
     * Paper Section 2.2 design option: drop dirty PV-range victim
     * blocks instead of writing them off-chip ("the caches become
     * virtualization aware").
     */
    bool dropPvWritebacks = false;
};

/**
 * Observer interface for components that shadow one cache's
 * activity — the SMS prefetcher trains on L1D accesses and ends
 * pattern generations on evictions/invalidations.
 */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;

    /**
     * Demand access completed its lookup.
     * @param hit Block was present.
     */
    virtual void onAccess(Addr pc, Addr addr, bool is_write,
                          bool hit) = 0;

    /** A valid block left the cache by replacement. */
    virtual void onEvict(Addr block_addr) = 0;

    /** A valid block left the cache by external invalidation. */
    virtual void onInvalidate(Addr block_addr) = 0;
};

/** The cache proper. */
class Cache final : public SimObject, public MemDevice, public MemClient
{
  public:
    /**
     * `addr_map` (required) tells PVTable addresses apart, for the
     * app/PV statistics and the dropPvWritebacks option; no packet
     * or frame carries that distinction.
     */
    Cache(SimContext &ctx, const CacheParams &params,
          const AddrMap *addr_map);

    // -- Wiring -----------------------------------------------------

    /** Connect the next level down (L2 for an L1; DRAM for the L2). */
    void
    setMemSide(MemDevice *dev)
    {
        memSide_ = dev;
        sendQueue_.setDevice(dev);
    }

    /**
     * Register an upstream coherent client (an L1 registering with
     * the L2). The returned slot must be stamped into srcSlot of
     * every coherent request the client sends here. A directory
     * cache sizes its sharer array here, so every client attaches
     * before the first access.
     */
    int attachClient(MemClient *client);

    /** Record this cache's directory slot at the level below. */
    void setLowerSlot(int slot) { slotAtLower_ = slot; }

    /** This cache's directory slot at the level below, or -1. */
    int lowerSlot() const { return slotAtLower_; }

    /** Observer of this cache's demand activity (may be nullptr). */
    void setListener(CacheListener *l) { listener_ = l; }

    // -- MemDevice (requests from above) ----------------------------

    bool recvRequest(PacketPtr pkt) override;
    uint64_t refusalMark() const override { return refusalMark_; }
    bool certainlyRefuses(const Packet &pkt,
                          uint64_t &mark) const override;
    void creditRejects(uint64_t n) override { mshrRejects += n; }
    void functionalAccess(Packet &pkt) override;
    std::string deviceName() const override { return name(); }

    // -- MemClient (fills and coherence from below) ------------------

    void recvResponse(PacketPtr pkt) override;
    void recvInvalidate(Addr block_addr) override;
    void recvDowngrade(Addr block_addr) override;
    std::string clientName() const override { return name(); }

    // -- Pipelined front side (cores) ---------------------------------

    /**
     * Timing-mode synchronous lookup, used by the cores to model a
     * pipelined L1 front side: a hit completes the packet in place
     * and returns true (no events, no stall); a miss (or a store
     * needing an upgrade) enters the MSHR path and returns false —
     * the response is delivered to pkt->src later.
     */
    bool probeAccess(PacketPtr pkt);

    // -- Prefetch side door ------------------------------------------

    /**
     * Issue a prefetch for block_addr into this cache (the paper
     * prefetches directly into the L1 with no intermediate buffer).
     * Returns false if dropped (already present, already in flight,
     * or no MSHR available).
     */
    bool issuePrefetch(Addr block_addr, Addr pc);

    // -- Introspection (tests, stats, harness) ------------------------

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return params_.assoc; }
    uint64_t sizeBytes() const { return params_.sizeBytes; }

    /** Non-mutating block lookup (tests / invariant checks). */
    const CacheBlk *peekBlock(Addr block_addr) const;

    /** True if the cache holds the block (valid). */
    bool contains(Addr block_addr) const
    {
        return peekBlock(block_addr) != nullptr;
    }

    /** Count of valid blocks (tests). */
    uint64_t numValidBlocks() const;

    /** Visit every valid block as fn(block_addr, blk) (tests /
     *  invariant checks). */
    template <typename Fn>
    void
    forEachValidBlock(Fn &&fn) const
    {
        for (size_t f = 0; f < blocks_.size(); ++f)
            if (tags_[f] != kInvalidTag)
                fn(tags_[f], blocks_[f]);
    }

    /** Directory: the client slots sharing block_addr, ascending
     *  (empty when the block is absent). */
    std::vector<unsigned> sharerSlots(Addr block_addr) const;

    /** Outstanding misses (tests / draining). */
    unsigned outstandingMisses() const { return mshrs_.used(); }

    /** Downstream requests queued behind backpressure. */
    const SendQueue &sendQueue() const { return sendQueue_; }

    /** True when no activity is pending inside the cache: no MSHR
     *  in use, no accepted lookup unresolved, nothing queued below. */
    bool quiesced() const;

    const CacheParams &params() const { return params_; }

    // -- Statistics (public: read directly by the harness) -----------

    stats::Scalar demandAccesses;
    stats::Scalar demandHits;
    stats::Scalar demandMisses;
    stats::Scalar readAccesses;
    stats::Scalar readHits;
    stats::Scalar readMisses;
    stats::Scalar writeAccesses;
    stats::Scalar writeHits;
    stats::Scalar writeMisses;
    stats::Scalar upgrades;

    stats::Scalar prefetchIssued;     ///< accepted into the cache
    stats::Scalar prefetchDropped;    ///< redundant (present/inflight)
    stats::Scalar prefetchFills;
    stats::Scalar coveredMisses;      ///< demand hit on prefetched blk
    stats::Scalar lateCovered;        ///< demand joined inflight pf
    stats::Scalar overpredictions;    ///< prefetched blk evicted unused

    stats::Scalar evictions;
    stats::Scalar writebacksOut;
    stats::Scalar cleanEvictsOut;
    stats::Scalar pvWritebacksDropped;

    stats::Scalar invalidationsSent;  ///< directory -> upstream
    stats::Scalar invalidationsRecv;
    stats::Scalar downgradesRecv;
    stats::Scalar recalls;            ///< dirty-owner fetch at L2

    stats::Scalar mshrCoalesced;
    stats::Scalar mshrRejects;

    /** Requests served, classified for Figures 6-8. */
    stats::Scalar requestsApp;
    stats::Scalar requestsPv;
    stats::Scalar missesApp;
    stats::Scalar missesPv;
    stats::Scalar writebacksApp;
    stats::Scalar writebacksPv;

    stats::Distribution missLatency;

  private:
    // -- Geometry -----------------------------------------------------

    unsigned setIndex(Addr block_addr) const
    {
        // numSets_ is a power of two for every realistic geometry;
        // the mask avoids a hardware divide on the hottest path.
        uint64_t bn = blockNumber(block_addr);
        return unsigned(setMask_ ? bn & setMask_ : bn % numSets_);
    }

    unsigned bankIndex(Addr block_addr) const
    {
        return unsigned(blockNumber(block_addr) % params_.banks);
    }

    CacheBlk *
    findBlock(Addr block_addr)
    {
        return const_cast<CacheBlk *>(peekBlock(block_addr));
    }

    /** The address map's verdict: a PVTable address. */
    bool
    isPv(Addr addr) const
    {
        return addrMap_->classify(addr) == AddrClass::Pv;
    }

    /** First block index of a set in the flat arrays. */
    size_t
    setBase(unsigned set) const
    {
        return size_t(set) * params_.assoc;
    }

    /** blk's index in the flat frame arrays. */
    size_t
    frameOf(const CacheBlk &blk) const
    {
        return size_t(&blk - blocks_.data());
    }

    /** Frame f's sharer words (sharerWords_ of them). */
    uint64_t *
    sharersOf(size_t f)
    {
        return sharers_.data() + f * sharerWords_;
    }

    /** Directory: client `slot` (>= 0) holds frame f's block. */
    void
    setSharer(size_t f, int slot)
    {
        sharers_[f * sharerWords_ + slot / 64] |= 1ull << (slot % 64);
    }

    /** Directory: client `slot` (>= 0) no longer holds it. */
    void
    clearSharer(size_t f, int slot)
    {
        sharers_[f * sharerWords_ + slot / 64] &=
            ~(1ull << (slot % 64));
    }

    /**
     * Empty blk's frame: its tag, sharer bits and line state. All
     * validity transitions go through here or installBlock.
     */
    void
    invalidateBlock_(CacheBlk &blk)
    {
        const size_t f = frameOf(blk);
        tags_[f] = kInvalidTag;
        std::fill_n(sharersOf(f), sharerWords_, 0);
        blk.invalidate();
    }

    // -- Core state machine (shared functional/timing) ----------------

    /**
     * The front of a demand or prefetch access in either mode: find
     * the block, turn an upgrade that lost its line into a write,
     * and tell the listener. Returns the block, re-probed after the
     * listener on a miss (it may have prefetched the very block).
     */
    CacheBlk *lookup(Packet &pkt);

    /**
     * The hit/fill completion common to both modes: coherence,
     * dirty/LRU update, coverage accounting, payload copy, response
     * conversion. No hit/miss stat counting.
     */
    void completeAccess_(Packet &pkt, CacheBlk &blk);

    /** Timing: route a missing request into the MSHR file. */
    void missToMshr_(PacketPtr pkt, MemCmd down_cmd);

    /**
     * Allocate (possibly evicting) a block frame for block_addr and
     * fill it from a response/fill packet's point of view.
     */
    CacheBlk &installBlock(Addr block_addr, bool writable,
                           bool was_prefetch, const Packet::Data *data);

    /** Evict blk: back-invalidate, write back or drop, notify. */
    void evictBlock(CacheBlk &blk);

    /** Handle an incoming Writeback/CleanEvict from above. */
    void handleWriteback(Packet &pkt);

    /** Directory: invalidate all upstream sharers except keep_slot. */
    void invalidateSharers(CacheBlk &blk, int keep_slot);

    /** Directory: pull a dirty upstream copy into this level. */
    void recallIfDirtyAbove(CacheBlk &blk);

    /** Send a writeback/clean-evict downstream (mode dependent). */
    void emitDown(PacketPtr pkt);

    /** Classify and count a served request (a writeback or
     *  clean-evict notice counts as a request, never a miss). */
    void countRequest(const Packet &pkt, bool hit);

    // -- Timing machinery ----------------------------------------------

    /** Accepted lookups and MSHRs fill the MSHR file: only requests
     *  that coalesce or hit are accepted. */
    bool
    mshrBudgetFull() const
    {
        return mshrs_.used() + pendingLookups_ >= mshrs_.capacity();
    }

    /** Block baddr was given an MSHR or installed: a refused request
     *  for it may now coalesce or hit. */
    void releaseBlock(Addr baddr);

    void handleLookup(PacketPtr pkt);
    void sendDownstream(PacketPtr pkt);
    Tick bankReadyTick(Addr block_addr);

    // -- Members --------------------------------------------------------

    /** tags_ value for an invalid way (never a block-aligned addr). */
    static constexpr Addr kInvalidTag = ~Addr(0);

    CacheParams params_;
    const AddrMap *addrMap_;
    unsigned numSets_;
    /** numSets_ - 1 when numSets_ is a power of two, else 0. */
    uint64_t setMask_ = 0;
    /** All block frames, flat: way w of set s at [s * assoc + w]. */
    std::vector<CacheBlk> blocks_;
    /**
     * Each frame's block address, or kInvalidTag when the frame is
     * empty: the only record of which block a frame holds and
     * whether it holds one. Lookups scan 8 bytes per way, the single
     * hottest loop in functional simulation.
     */
    std::vector<Addr> tags_;
    /**
     * LRU state (paper Table 1 uses LRU in every cache): the
     * accessCounter_ value of each frame's last hit or fill. Kept
     * apart from the frames so the victim scan reads 8 bytes per
     * way.
     */
    std::vector<uint64_t> lastTouch_;
    uint64_t accessCounter_ = 0;

    MemDevice *memSide_ = nullptr;
    std::vector<MemClient *> clients_;
    /**
     * Directory only: bit s of frame f's sharerWords_ words at
     * [f * sharerWords_] is set while client slot s holds the
     * frame's block. Sized by attachClient, ceil(clients / 64) words
     * per frame.
     */
    std::vector<uint64_t> sharers_;
    unsigned sharerWords_ = 0;
    CacheListener *listener_ = nullptr;
    int slotAtLower_ = -1;

    MshrFile mshrs_;
    /** Accepted requests whose tag lookup has not resolved yet;
     *  counted against the MSHR budget so acceptance is honest. */
    unsigned pendingLookups_ = 0;
    /** Downstream packets awaiting acceptance (misses, writebacks). */
    SendQueue sendQueue_;
    /** recvResponse's spare targets vector: an MSHR's targets leave
     *  through it, and it hands its capacity to the entry. */
    std::vector<PacketPtr> drainScratch_;

    /**
     * The blocks given an MSHR or installed, the latest kReleaseLog
     * of them: release i is at releaseLog_[i % kReleaseLog], and
     * releaseSeq_ is the next i. certainlyRefuses() reads it instead
     * of the tags.
     */
    static constexpr unsigned kReleaseLog = 16;
    std::array<Addr, kReleaseLog> releaseLog_{};
    /** Starts at 1: mark 0 means "refused for a reason that says
     *  nothing about the block". */
    uint64_t releaseSeq_ = 1;
    /** refusalMark() for the latest refusal. */
    uint64_t refusalMark_ = 0;

    std::vector<Tick> bankFreeAt_;
};

} // namespace pvsim

#endif // PVSIM_MEM_CACHE_HH
