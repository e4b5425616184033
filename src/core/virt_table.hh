/**
 * @file
 * Generic virtualized set-associative table: the reusable heart of
 * Predictor Virtualization. Maps keys to packed in-memory sets
 * through a (possibly shared, multi-tenant) PvProxy, with tag
 * matching, in-set replacement driven by sideband recency (the
 * packed line's trailing bits stay unused, as the paper leaves
 * them), and write-allocate dirty tracking.
 *
 * VirtualizedPht (the paper's case study), VirtualizedBtb (its
 * future-work suggestion) and VirtualizedAgt (the SMS table it
 * leaves in SRAM) are thin VirtEngine adapters over this class,
 * demonstrating that PV is "a general framework for emulating
 * otherwise impractical to implement predictors" (Section 5).
 */

#ifndef PVSIM_CORE_VIRT_TABLE_HH
#define PVSIM_CORE_VIRT_TABLE_HH

#include <functional>

#include "core/pv_codec.hh"
#include "core/pv_proxy.hh"
#include "util/bitfield.hh"

namespace pvsim {

/** Key-addressed associative table living in the memory hierarchy. */
class VirtualizedAssocTable
{
  public:
    /** Result delivery for find(); fires exactly once. */
    using FindCallback =
        std::function<void(bool found, uint64_t payload)>;

    /**
     * Transform for mutate(): receives the current payload (0 when
     * the key is absent) and returns the new payload, or 0 to leave
     * the table unchanged.
     */
    using MutateFn = std::function<uint64_t(bool found, uint64_t old)>;

    /**
     * @param proxy    The PVProxy fronting this table's segment. Not
     *                 owned; one proxy may serve many tables.
     * @param table_id This table's tenant id from registerEngine().
     * @param codec    Packing geometry (ways, tagBits, payloadBits).
     *
     * The table has proxy->engineLayout(table_id).numSets() sets; a
     * key maps to set (key % numSets) with tag (key / numSets).
     */
    VirtualizedAssocTable(PvProxy *proxy, unsigned table_id,
                          const PvSetCodec &codec)
        : proxy_(proxy), tableId_(table_id), codec_(codec)
    {
        pv_assert(proxy_ != nullptr, "table needs a proxy");
        pv_assert(table_id < proxy->numEngines(),
                  "table-id %u not registered with the proxy",
                  table_id);
        // The PvLineView sideband recency array is sized kPvMaxWays;
        // the codec constructor enforces the same ceiling, but keep
        // the coupling explicit here where the ages array is used.
        pv_assert(codec_.ways() <= kPvMaxWays,
                  "codec ways exceed the sideband recency capacity");
    }

    unsigned numSets() const
    {
        return proxy_->engineLayout(tableId_).numSets();
    }
    unsigned ways() const { return codec_.ways(); }
    unsigned tableId() const { return tableId_; }
    const PvSetCodec &codec() const { return codec_; }
    PvProxy &proxy() { return *proxy_; }

    /**
     * Retrieve the payload for key. A dropped operation (proxy
     * buffers full) reports "not found", as the paper allows.
     */
    void
    find(uint64_t key, FindCallback cb)
    {
        unsigned set = setOf(key);
        uint32_t tag = tagOf(key);
        proxy_->access({tableId_, set, PvReqClass::Demand,
                        [this, tag, cb = std::move(cb)](PvLineView view) {
            if (!view.bytes) {
                cb(false, 0);
                return;
            }
            PvSet s = codec_.decode(view.bytes);
            int way = s.findTag(tag);
            if (way < 0) {
                cb(false, 0);
                return;
            }
            touch(*view.ages, unsigned(way));
            cb(true, s.ways[way].payload);
        }});
    }

    /**
     * Store payload for key (insert or update). @pre payload != 0
     * (zero is the invalid-entry marker). Dropped silently when the
     * proxy's buffers are full — predictor updates are advisory.
     */
    void
    store(uint64_t key, uint64_t payload)
    {
        pv_assert(payload != 0, "zero payload is the empty marker");
        mutate(key, [payload](bool, uint64_t) { return payload; });
    }

    /**
     * Read-modify-write in one proxy operation: fn sees the current
     * payload for key (0 when absent) and returns the new one (0 to
     * leave the set untouched). Dropped silently under buffer
     * pressure, like store().
     */
    void
    mutate(uint64_t key, MutateFn fn)
    {
        unsigned set = setOf(key);
        uint32_t tag = tagOf(key);
        proxy_->access({tableId_, set, PvReqClass::Demand,
                        [this, tag, fn = std::move(fn)](PvLineView view) {
            if (!view.bytes)
                return; // dropped: the update is lost, harmlessly
            PvSet s = codec_.decode(view.bytes);
            int way = s.findTag(tag);
            uint64_t old = way >= 0 ? s.ways[way].payload : 0;
            uint64_t next = fn(way >= 0, old);
            if (next == 0)
                return;
            if (way < 0)
                way = s.findFree();
            if (way < 0)
                way = victimWay(*view.ages);
            if (next != old || s.ways[way].tag != tag) {
                s.ways[way].tag = tag;
                s.ways[way].payload = next;
                codec_.encode(s, view.bytes);
                *view.dirty = true;
            }
            touch(*view.ages, unsigned(way));
        }});
    }

    unsigned setOf(uint64_t key) const
    {
        return unsigned(key % numSets());
    }

    uint32_t
    tagOf(uint64_t key) const
    {
        return uint32_t((key / numSets()) &
                        mask(int(codec_.tagBits())));
    }

  private:
    /** Recency update: way becomes youngest, everyone else ages. */
    void
    touch(std::array<uint8_t, kPvMaxWays> &ages, unsigned way) const
    {
        for (unsigned w = 0; w < codec_.ways(); ++w) {
            if (ages[w] < 0xff)
                ++ages[w];
        }
        ages[way] = 0;
    }

    /** Oldest way (ties resolved toward way 0). */
    unsigned
    victimWay(const std::array<uint8_t, kPvMaxWays> &ages) const
    {
        unsigned best = 0;
        for (unsigned w = 1; w < codec_.ways(); ++w) {
            if (ages[w] > ages[best])
                best = w;
        }
        return best;
    }

    PvProxy *proxy_;
    unsigned tableId_;
    PvSetCodec codec_;
};

} // namespace pvsim

#endif // PVSIM_CORE_VIRT_TABLE_HH
