/**
 * @file
 * The PVProxy (paper Section 2.2): the on-chip mediator between
 * optimization engines and their in-memory PVTables. Holds a small
 * fully-associative PVCache of table sets (one 64-byte line each),
 * an MSHR file for in-flight set fetches, a pattern buffer staging
 * pending operations while their set is fetched, and an evict buffer
 * for dirty lines on their way to the L2.
 *
 * The proxy is multi-tenant: one reserved PV physical region is
 * partitioned into per-table segments, and any number of virtualized
 * engines (PHT, BTB, AGT) register with the same proxy and
 * share its PVCache and buffers. In-flight entries are tagged with
 * the owning table-id, statistics are attributed per engine, and a
 * fair drop policy keeps one engine from starving the others out of
 * the pattern buffer. Tenants may additionally carry a QoS contract
 * (pv_qos.hh) — a weight plus optional per-resource floors — under
 * which the proxy partitions the PVCache, the MSHR file, and the
 * pattern buffer by weighted entitlement instead of the symmetric
 * fair share, protecting a latency-critical tenant from a
 * bandwidth-hungry one.
 *
 * Every entry point is one PvRequest descriptor: (table, set, class,
 * op), where the class is Demand or Prefetch. Demand requests are
 * the engines' ordinary set operations; Prefetch requests ask for a
 * speculative fill of a set's line without an operation attached.
 * An operation is a PvOp value. The proxy holds it (in in-flight
 * storage it reuses) until the set's line is in the PVCache, then
 * completes it with one virtual call, PvOpTarget::complete(op,
 * line), on the engine that issued it. Ops on one line complete in
 * arrival order, and a dropped op completes at once with a null
 * line.
 * A line takes one route through the proxy: fetch() requests it
 * from the L2, install() enters it into the PVCache, and
 * writeBack() sends it back when it leaves dirty. On top of the
 * demand stream the proxy runs the paper's Section 4.3 locality
 * optimizations when enabled:
 *
 *  - `prefetchDepth` > 0 arms a per-tenant sequential-set stride
 *    detector; a demand access extending a detected stride issues
 *    speculative fills for the next set(s). Prefetches are
 *    low-priority by construction: they never take the last free
 *    MSHR, are charged against the owning tenant's MSHR entitlement
 *    (a zero-entitlement tenant's prefetches drop first), and their
 *    PVCache occupancy is charged like any other line, so a tenant
 *    cannot launder capacity through speculation.
 *  - `victimEntries` > 0 adds a small victim buffer retaining
 *    evicted lines; a demand miss that hits the victim buffer
 *    reinstalls the line without memory traffic. Victim capacity is
 *    charged to the owning tenant's PVCache entitlement share.
 *
 * Both knobs default to 0, which is bit-identical to the
 * pre-prefetch proxy.
 *
 * All PVProxy memory traffic is made of ordinary requests injected
 * at the L2 ("on the backside of the L1"); the hierarchy is
 * oblivious to what it is caching, and only the address map tells
 * PV traffic apart for statistics. Speculative fills are ReadReq
 * packets flagged isPrefetch, taking the exact same path as demand
 * fills.
 */

#ifndef PVSIM_CORE_PV_PROXY_HH
#define PVSIM_CORE_PV_PROXY_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/pv_codec.hh"
#include "core/pv_layout.hh"
#include "core/pv_qos.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"

namespace pvsim {

/** PVProxy configuration (paper Section 4.6 final design). */
struct PvProxyParams {
    std::string name = "pvproxy";
    /** PVCache entries; the paper settles on eight (Section 4.3). */
    unsigned pvCacheEntries = 8;
    /** Outstanding set fetches. */
    unsigned mshrs = 4;
    /** Dirty lines buffered toward the L2. */
    unsigned evictBufferEntries = 4;
    /** Pending operations staged while sets are in flight. */
    unsigned patternBufferEntries = 16;
    /** Sets prefetched ahead on a detected sequential-set stride
     *  (paper Section 4.3 locality prefetch). 0 disables the
     *  detector entirely — bit-identical to the pre-prefetch proxy. */
    unsigned prefetchDepth = 0;
    /** Victim-buffer entries retaining evicted lines (0 = none). */
    unsigned victimEntries = 0;
};

/** Registration record for one tenant table. */
struct PvEngineInfo {
    std::string name = "table";
    /** Sets (= lines) this engine's segment occupies. */
    unsigned numSets = 0;
    /** Live bits of each packed line (storage accounting). */
    unsigned usedBitsPerLine = 0;
    /** QoS contract: weight + optional floors over the shared
     *  PVCache / MSHR / pattern-buffer capacity (pv_qos.hh). The
     *  default contract keeps the legacy fair-share policy. */
    PvTenantQos qos;
};

/**
 * Mutable view of one cached PVTable line handed to an operation.
 * `dirty` must be set by operations that modify the bytes; `ages`
 * is sideband per-way recency metadata that lives only while the
 * line is in the PVCache (the packed line's trailing bits stay
 * unused, as in the paper's Figure 3a). Sized from the codec's
 * way-count ceiling so a wide codec can never overflow it.
 */
struct PvLineView {
    uint8_t *bytes;
    bool *dirty;
    std::array<uint8_t, kPvMaxWays> *ages;
};

/** What a PvOp asks of its set; the target's complete() reads it. */
enum class PvOpKind : uint8_t {
    Find,   ///< read one entry
    Store,  ///< write one entry's payload
    Mutate, ///< read-modify-write one entry
};

class PvOpTarget;

/**
 * An operation against one table set, as a value. The proxy reads
 * only `target`; the rest is the target's to interpret.
 */
struct PvOp {
    /** Completes the op (the engine that issued it). */
    PvOpTarget *target = nullptr;
    PvOpKind kind = PvOpKind::Find;
    /** The key's tag within its set. */
    uint32_t tag = 0;
    /** What the op writes, e.g. a Store's payload. */
    uint64_t operand = 0;
    /** Handed back untouched: what the target needs to finish the
     *  op, e.g. the access that triggered a lookup. */
    std::array<uint64_t, 2> token{};
};

/**
 * Whoever issues PvOps: each one completes exactly once, either
 * immediately (PVCache hit / functional mode) or when the set
 * arrives from the memory hierarchy. If the proxy must drop the
 * operation (buffers full), it completes with view.bytes == nullptr
 * and the engine sees a predictor miss (paper Section 2.2).
 */
class PvOpTarget
{
  public:
    virtual ~PvOpTarget() = default;

    virtual void complete(const PvOp &op, PvLineView view) = 0;
};

/** Request classes a PvRequest may carry. */
enum class PvReqClass {
    Demand,   ///< ordinary engine operation (needs an op)
    Prefetch, ///< speculative fill of the set's line (no op)
};

/**
 * The proxy's single entry descriptor: every engine-visible access
 * is one of these, flowing proxy -> QoS arbiter -> boundary/L2.
 * Demand requests require an op with a target; Prefetch requests
 * ignore `op`.
 */
struct PvRequest {
    unsigned table = 0;
    unsigned set = 0;
    PvReqClass cls = PvReqClass::Demand;
    PvOp op;
};

/** The proxy. */
class PvProxy : public SimObject, public MemClient
{
  public:
    /**
     * The proxy fronts the PV region [region_start, region_start +
     * region_bytes). Engines claim segments with registerEngine()
     * before issuing accesses.
     */
    PvProxy(SimContext &ctx, const PvProxyParams &params,
            Addr region_start, uint64_t region_bytes);

    /**
     * Register a tenant; returns its table-id. The engine's segment
     * is carved from the region in registration order, so distinct
     * table-ids map to disjoint PV addresses by construction.
     */
    unsigned registerEngine(const PvEngineInfo &info);

    unsigned numEngines() const { return unsigned(engines_.size()); }

    /** Segment layout of one tenant. */
    const PvTableLayout &
    engineLayout(unsigned table) const
    {
        return engines_.at(table).layout;
    }

    /** Connect the level the proxy injects requests into (the L2). */
    void
    setMemSide(MemDevice *dev)
    {
        memSide_ = dev;
        sendQueue_.setDevice(dev);
    }

    /**
     * Perform one request (see PvRequest). Demand requests fetch
     * the set's line from the memory hierarchy on a PVCache miss;
     * Prefetch requests issue a speculative fill subject to the
     * MSHR-headroom and entitlement rules.
     */
    void access(const PvRequest &req);

    /** Write back all dirty lines (all tenants) and drop clean ones. */
    void flush();

    /** True when nothing is in flight (timing mode draining). */
    bool quiesced() const
    {
        return numInFlight_ == 0 && sendQueue_.empty();
    }

    /**
     * Recount every tenant's PVCache and victim-buffer entries, the
     * fetches in flight and the ops waiting on them from the buffers
     * themselves, and panic unless the recounts equal the running
     * counts the proxy charges and admits by and stay within the
     * configured capacities.
     */
    void checkOccupancy() const;

    const PvProxyParams &params() const { return params_; }
    const PvRegionLayout &region() const { return region_; }

    /** Requests queued toward the L2 behind backpressure. */
    const SendQueue &sendQueue() const { return sendQueue_; }

    // MemClient
    void recvResponse(PacketPtr pkt) override;
    std::string clientName() const override { return name(); }

    /**
     * Dedicated on-chip storage, itemized as in paper Section 4.6.
     * All values in bits.
     */
    struct StorageBreakdown {
        uint64_t pvCacheData = 0;
        uint64_t tags = 0;
        uint64_t dirtyBits = 0;
        uint64_t mshrs = 0;
        uint64_t evictBuffer = 0;
        uint64_t patternBuffer = 0;
        uint64_t victimBuffer = 0;

        uint64_t
        totalBits() const
        {
            return pvCacheData + tags + dirtyBits + mshrs +
                   evictBuffer + patternBuffer + victimBuffer;
        }

        double totalBytes() const { return totalBits() / 8.0; }
    };

    StorageBreakdown storageBreakdown() const;

    /** Per-tenant statistics scope ("<proxy>.<engine>"). */
    struct EngineStats : public stats::Group {
        EngineStats(stats::Group *parent, const std::string &name);

        stats::Scalar operations;
        stats::Scalar hits;        ///< PVCache hits
        stats::Scalar misses;      ///< PVCache misses
        stats::Scalar drops;       ///< ops dropped (predictor miss)
        stats::Scalar qosDrops;    ///< ... by the share policy
        stats::Scalar fills;       ///< demand sets fetched
        stats::Scalar writebacks;  ///< dirty lines written back
        /** Sum of ticks each of this tenant's *demand* fills spent
         *  between fetch issue and PVCache install (timing mode):
         *  divide by `fills` for the tenant's mean demand-fill
         *  latency. Speculative fills are counted separately in
         *  prefetchFills so they cannot dilute this mean. */
        stats::Scalar fillLatencyTicks;
        /** High-watermark of PVCache entries held at once. */
        stats::Scalar pvCachePeak;
        /** Speculative fills installed for this tenant. */
        stats::Scalar prefetchFills;
        /** Prefetched lines later referenced by a demand access. */
        stats::Scalar prefetchUseful;
        /** Prefetches dropped by headroom/entitlement rules. */
        stats::Scalar prefetchDrops;
        /** Demand misses served from the victim buffer. */
        stats::Scalar victimHits;
    };

    EngineStats &engineStats(unsigned table)
    {
        return *engines_.at(table).stats;
    }

    // ---- Per-tenant QoS (pv_qos.hh) -----------------------------------

    /**
     * Replace one tenant's QoS contract at runtime (e.g. between
     * warmup and measurement). Entitlements take effect on the next
     * admission/eviction decision; occupancy converges through the
     * normal replacement traffic — no lines are flushed.
     */
    void
    setTenantQos(unsigned table, const PvTenantQos &qos)
    {
        engines_.at(table).info.qos = qos;
        qos_.setTenantQos(table, qos);
    }

    const PvTenantQos &
    tenantQos(unsigned table) const
    {
        return engines_.at(table).info.qos;
    }

    /** The arbiter (entitlement introspection for tests/benches). */
    const PvQosArbiter &qosArbiter() const { return qos_; }

    /** PVCache entries tenant `table` currently holds. */
    unsigned
    pvCacheOccupancy(unsigned table) const
    {
        return cacheOcc_.at(table);
    }

    /** MSHRs tenant `table` currently holds (in-flight fetches). */
    unsigned mshrOccupancy(unsigned table) const
    {
        return inFlightCount(table);
    }

    /** Pattern-buffer entries tenant `table` currently holds. */
    unsigned patternOccupancy(unsigned table) const
    {
        return pendingOpCount(table);
    }

    /** Victim-buffer entries tenant `table` currently holds. */
    unsigned
    victimOccupancy(unsigned table) const
    {
        return victimOcc_.at(table);
    }

    // Aggregate statistics (all tenants)
    stats::Scalar operations;
    stats::Scalar pvCacheHits;
    stats::Scalar pvCacheMisses;
    stats::Scalar memRequests;   ///< set fetches sent to the L2
    stats::Scalar coalescedOps;  ///< ops joining an in-flight fetch
    stats::Scalar droppedOps;    ///< ops dropped (reported as miss)
    stats::Scalar fairnessDrops; ///< ... dropped by the fair policy
    stats::Scalar fills;         ///< demand fills installed
    stats::Scalar writebacks;    ///< dirty lines sent to the L2
    stats::Scalar cleanEvicts;   ///< clean lines silently dropped
    stats::Scalar evictOverflows;
    stats::Scalar prefetchFills;  ///< speculative fills installed
    stats::Scalar prefetchUseful; ///< ... later used by demand
    stats::Scalar prefetchDrops;  ///< prefetches dropped pre-issue
    stats::Scalar victimHits;     ///< misses served by the victim buf

  private:
    /** Per-tenant sequential-set stride detector state. */
    struct StrideState {
        bool seen = false;
        unsigned lastSet = 0;
        int lastStride = 0;
    };

    struct Engine {
        PvEngineInfo info;
        PvTableLayout layout;
        std::unique_ptr<EngineStats> stats;
        StrideState stride;
    };

    struct CacheEntry {
        bool valid = false;
        unsigned line = 0;  ///< global line index in the region
        unsigned table = 0; ///< owning tenant (stats attribution)
        bool dirty = false;
        /** Installed speculatively and not yet demand-referenced. */
        bool prefetched = false;
        uint64_t lastTouch = 0;
        std::array<uint8_t, kBlockBytes> bytes{};
        std::array<uint8_t, kPvMaxWays> ages{};
    };

    /** One MSHR: a pending fetch, tagged with tenant and request
     *  class, and the ops waiting on its line. */
    struct InFlight {
        bool valid = false;
        unsigned line = 0;
        unsigned table = 0;
        PvReqClass cls = PvReqClass::Demand;
        /** In arrival order. Keeps its capacity when the fetch
         *  completes, so a warm proxy allocates nothing. */
        std::vector<PvOp> pendingOps;
    };

    /** Strides this close count as one sequential walk even when
     *  consecutive hops differ (block lengths vary in real code). */
    static constexpr int kSequentialWindow = 8;

    void accessDemand(unsigned table, unsigned set, const PvOp &op);
    /**
     * Timing-mode admission of a demand miss: join a fetch of the
     * line already in flight, or drop the op when the MSHR file or
     * pattern buffer is full or the tenant holds its share of one.
     * True when the miss may fetch; otherwise `op` was queued or
     * completed as dropped.
     */
    bool admitDemand(unsigned line, unsigned table, const PvOp &op);
    /** Stride detection + speculative issue after a demand access. */
    void maybePrefetch(unsigned table, unsigned set);
    /** One speculative fill, subject to headroom/entitlement. */
    void issuePrefetch(unsigned table, unsigned set);
    /**
     * Request a line from the L2: synchronously in functional mode
     * (then install() it), as an in-flight entry plus one ReadReq
     * in timing mode (installed by recvResponse). `op`, if not
     * null, completes on the line once it is installed.
     */
    void fetch(unsigned line, unsigned table, PvReqClass cls,
               const PvOp *op);
    /** Enter a fetched line into the PVCache, count the fill by
     *  class, and complete the `num_ops` ops waiting on it. */
    void install(unsigned line, unsigned table, PvReqClass cls,
                 const Packet &pkt, const PvOp *ops, size_t num_ops);
    /** Send a line leaving the proxy back to the L2 if dirty;
     *  count a clean eviction otherwise. */
    void writeBack(const CacheEntry &e);
    /** The valid entry of `buffer` holding `line`, or nullptr. */
    static CacheEntry *findLine(std::vector<CacheEntry> &buffer,
                                unsigned line);
    /** The first invalid entry of `buffer`, or nullptr. */
    static CacheEntry *freeEntry(std::vector<CacheEntry> &buffer);
    /** The least recently touched valid entry of `buffer` that
     *  satisfies pred (the first on ties), or nullptr. */
    template <class Pred>
    static CacheEntry *lruAmong(std::vector<CacheEntry> &buffer,
                                Pred pred);
    CacheEntry &allocateEntry(unsigned line, unsigned table);
    CacheEntry *pickVictim(unsigned table);
    void applyOp(CacheEntry &e, const PvOp &op);
    void dropOp(unsigned table, const PvOp &op, bool fairness);
    void evictEntry(CacheEntry &e, bool retain);
    /** Move an evicted line into the victim buffer (when allowed). */
    bool retainVictim(const CacheEntry &e);
    /** Serve a demand miss from the victim buffer, if retained. */
    bool reinstallVictim(unsigned line, unsigned table,
                         const PvOp &op);
    /** Flush one victim slot to memory (writeback/clean-evict). */
    void flushVictimSlot(CacheEntry &slot);
    /** Victim-buffer entries tenant `table` may occupy. */
    unsigned victimShare(unsigned table) const;
    /** The MSHR fetching `line`, or nullptr. */
    InFlight *findInFlight(unsigned line);
    unsigned pendingOpCount(unsigned table) const;
    unsigned inFlightCount(unsigned table) const;

    /**
     * Entries of a shared buffer of `capacity` that one tenant may
     * occupy: the fair policy reserves one slot for every other
     * registered tenant, so a single busy engine can fill most —
     * but never all — of the buffer. Applied to both the pattern
     * buffer and the MSHR file.
     */
    unsigned fairShare(unsigned capacity) const;

    /**
     * The cap the arbiter enforces on tenant `table` for resource
     * `r`: the legacy fair share while every tenant carries the
     * default contract (bit-identical to pre-QoS behavior), the
     * weighted entitlement once any tenant sets a weight or floor.
     */
    unsigned shareLimit(unsigned table, PvQosArbiter::Resource r) const;

    Addr lineAddress(unsigned line) const
    {
        return region_.base() + Addr(line) * kBlockBytes;
    }

    PvProxyParams params_;
    PvRegionLayout region_;
    std::vector<Engine> engines_;
    PvQosArbiter qos_;
    /** PVCache entries held per tenant (occupancy charging). */
    std::vector<unsigned> cacheOcc_;
    /** Victim-buffer entries held per tenant. */
    std::vector<unsigned> victimOcc_;
    MemDevice *memSide_ = nullptr;

    std::vector<CacheEntry> entries_;
    std::vector<CacheEntry> victims_;
    /** params_.mshrs slots; numInFlight_ of them valid. */
    std::vector<InFlight> inFlight_;
    unsigned numInFlight_ = 0;
    /** Ops waiting in all MSHRs: the pattern buffer's occupancy. */
    unsigned pendingOps_ = 0;
    /** recvResponse's ops, moved out of their MSHR before they run. */
    std::vector<PvOp> opScratch_;
    /** Requests (fetches, writebacks) toward the L2. */
    SendQueue sendQueue_;
    uint64_t touchCounter_ = 0;
};

} // namespace pvsim

#endif // PVSIM_CORE_PV_PROXY_HH
