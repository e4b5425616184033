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
 * oblivious to PV data except for statistics classification.
 */

#ifndef PVSIM_MEM_CACHE_HH
#define PVSIM_MEM_CACHE_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache_blk.hh"
#include "mem/mshr.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "mem/replacement.hh"
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
    std::string replPolicy = "lru";
    /**
     * Paper Section 2.2 design option: drop dirty PV-range victim
     * blocks instead of writing them off-chip ("the caches become
     * virtualization aware"). Requires an AddrMap.
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
     * @param hit            Block was present.
     * @param prefetched_hit Hit on a not-yet-demand-touched
     *                       prefetched block (a covered miss).
     */
    virtual void onAccess(Addr pc, Addr addr, bool is_write, bool hit,
                          bool prefetched_hit) = 0;

    /** A valid block left the cache by replacement. */
    virtual void onEvict(Addr block_addr) = 0;

    /** A valid block left the cache by external invalidation. */
    virtual void onInvalidate(Addr block_addr) = 0;
};

/** The cache proper. */
class Cache final : public SimObject, public MemDevice, public MemClient
{
  public:
    Cache(SimContext &ctx, const CacheParams &params,
          const AddrMap *addr_map = nullptr);

    // -- Wiring -----------------------------------------------------

    /** Connect the next level down (L2 for an L1; DRAM for the L2). */
    void setMemSide(MemDevice *dev) { memSide_ = dev; }

    /**
     * Register an upstream coherent client (an L1 registering with
     * the L2). The returned slot must be stamped into srcSlot of
     * every coherent request the client sends here.
     */
    int attachClient(MemClient *client);

    /** Record this cache's directory slot at the level below. */
    void setLowerSlot(int slot) { slotAtLower_ = slot; }

    /** Observer of this cache's demand activity (may be nullptr). */
    void setListener(CacheListener *l) { listener_ = l; }

    // -- MemDevice (requests from above) ----------------------------

    bool recvRequest(PacketPtr pkt) override;
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

    /** Visit every valid block (tests / invariant checks). */
    template <typename Fn>
    void
    forEachValidBlock(Fn &&fn) const
    {
        for (const auto &blk : blocks_)
            if (blk.valid)
                fn(blk);
    }

    /** Outstanding misses (tests / draining). */
    unsigned outstandingMisses() const { return mshrs_.used(); }

    /** The MSHR file (diagnostics: who is stuck on what). */
    const MshrFile &mshrFile() const { return mshrs_; }

    /** Accepted requests still in the tag-lookup stage. */
    unsigned pendingLookups() const { return pendingLookups_; }

    /** Downstream requests queued behind backpressure. */
    size_t sendQueueDepth() const { return sendQueue_.size(); }

    /** True when no activity is pending inside the cache. */
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

    CacheBlk *findBlock(Addr block_addr);

    /** First block index of a set in the flat arrays. */
    size_t
    setBase(unsigned set) const
    {
        return size_t(set) * params_.assoc;
    }

    /**
     * Invalidate blk and clear its mirrored tag. All validity
     * transitions must go through here or installBlock so tags_
     * stays exact.
     */
    void
    invalidateBlock_(CacheBlk &blk)
    {
        tags_[size_t(&blk - blocks_.data())] = kInvalidTag;
        blk.invalidate();
    }

    // -- Core state machine (shared functional/timing) ----------------

    /**
     * Serve a request that hit in blk: coherence actions, dirty/LRU
     * updates, stats, payload copy, response conversion. Leaves pkt
     * as a response.
     */
    void serveHit(Packet &pkt, CacheBlk &blk);

    /**
     * The hit/fill completion common to both modes: coherence,
     * dirty/LRU update, coverage accounting, payload copy, response
     * conversion. No hit/miss stat counting.
     */
    void completeAccess_(Packet &pkt, CacheBlk &blk);

    /** Timing: route a missing request into the MSHR file. */
    void missToMshr_(PacketPtr pkt, MemCmd down_cmd);

    /** Count a self-issued prefetch in the request class stats. */
    void countRequest_prefetch_(Addr baddr);

    /**
     * Allocate (possibly evicting) a block frame for block_addr and
     * fill it from a response/fill packet's point of view.
     */
    CacheBlk &installBlock(Addr block_addr, bool writable, bool is_pv,
                           bool is_inst, bool was_prefetch,
                           const Packet::Data *data);

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

    /** Classify and count a served request. */
    void countRequest(const Packet &pkt, bool hit);

    // -- Timing machinery ----------------------------------------------

    void handleLookup(PacketPtr pkt);
    void handleMiss(PacketPtr pkt);
    void sendDownstream(PacketPtr pkt);
    void drainSendQueue();
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
     * Mirror of each frame's (valid, blockAddr) packed into one
     * word: the tag when valid, kInvalidTag otherwise. Lookups scan
     * 8 bytes per way instead of pulling whole CacheBlk frames
     * through the host caches — the single hottest loop in
     * functional simulation.
     */
    std::vector<Addr> tags_;
    /**
     * Mirror of each frame's lastTouch, maintained only on the
     * lruFast_ path (its only reader): keeps the victim scan on a
     * compact array instead of striding through CacheBlk frames.
     */
    std::vector<uint64_t> lastTouch_;
    std::unique_ptr<ReplacementPolicy> repl_;
    /** True for the (default) LRU policy: victim selection and
     *  touch run inline instead of through the policy virtuals —
     *  identical choices, no candidate-vector rebuild per miss. */
    bool lruFast_ = false;
    uint64_t accessCounter_ = 0;

    MemDevice *memSide_ = nullptr;
    std::vector<MemClient *> clients_;
    CacheListener *listener_ = nullptr;
    int slotAtLower_ = -1;

    MshrFile mshrs_;
    /** Accepted requests whose tag lookup has not resolved yet;
     *  counted against the MSHR budget so acceptance is honest. */
    unsigned pendingLookups_ = 0;
    /** Reused victim-candidate buffer (avoids per-miss allocation). */
    std::vector<CacheBlk *> victimScratch_;
    /** Downstream packets awaiting acceptance (misses, writebacks). */
    std::deque<PacketPtr> sendQueue_;
    bool drainScheduled_ = false;

    std::vector<Tick> bankFreeAt_;
};

} // namespace pvsim

#endif // PVSIM_MEM_CACHE_HH
