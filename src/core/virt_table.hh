/**
 * @file
 * Generic virtualized set-associative table: the reusable heart of
 * Predictor Virtualization. Maps keys to packed in-memory sets
 * through a (possibly shared, multi-tenant) PvProxy, with tag
 * matching, in-set replacement driven by sideband recency (the
 * packed line's trailing bits stay unused, as the paper leaves
 * them), and write-allocate dirty tracking.
 *
 * An engine sends a PvOp to a key's set with issue(). The proxy
 * hands the op back, with the set's line, to the engine's
 * complete(), which reads or writes the line through the helpers
 * findIn(), storeIn() and mutateIn(). They work on the packed line
 * in place: a find stops at the matching tag, and a write rewrites
 * only the way it changes.
 *
 * VirtualizedPht (the paper's case study), VirtualizedBtb (its
 * future-work suggestion) and VirtualizedAgt (the SMS table it
 * leaves in SRAM) are thin VirtEngine adapters over this class,
 * demonstrating that PV is "a general framework for emulating
 * otherwise impractical to implement predictors" (Section 5).
 */

#ifndef PVSIM_CORE_VIRT_TABLE_HH
#define PVSIM_CORE_VIRT_TABLE_HH

#include "core/pv_codec.hh"
#include "core/pv_proxy.hh"
#include "util/bitfield.hh"

namespace pvsim {

/** Key-addressed associative table living in the memory hierarchy. */
class VirtualizedAssocTable
{
  public:
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
     * Send op to key's set with key's tag. The proxy completes it
     * exactly once through op.target, with a null line when it had
     * to drop the op (the predictor misses, as the paper allows).
     */
    void
    issue(uint64_t key, PvOp op)
    {
        op.tag = tagOf(key);
        proxy_->access({tableId_, setOf(key), PvReqClass::Demand, op});
    }

    /**
     * The payload stored under tag, or 0 when it is absent or the op
     * was dropped (view.bytes == nullptr). A hit refreshes the way's
     * recency.
     */
    uint64_t
    findIn(PvLineView view, uint32_t tag) const
    {
        if (!view.bytes)
            return 0;
        int way = codec_.findTag(view.bytes, tag);
        if (way < 0)
            return 0;
        touch(*view.ages, unsigned(way));
        return codec_.payloadAt(view.bytes, unsigned(way));
    }

    /**
     * Store payload under tag (insert or update). @pre payload != 0
     * (zero is the invalid-entry marker). A dropped op stores
     * nothing: predictor updates are advisory.
     */
    void
    storeIn(PvLineView view, uint32_t tag, uint64_t payload) const
    {
        pv_assert(payload != 0, "zero payload is the empty marker");
        mutateIn(view, tag, [payload](bool, uint64_t) { return payload; });
    }

    /**
     * Read-modify-write of tag's entry: fn(found, old) sees the
     * current payload (0 when absent) and returns the new one (0 to
     * leave the set untouched). An absent tag takes the first empty
     * way, else the least recently used one. A dropped op does
     * nothing, like storeIn().
     */
    template <class Fn>
    void
    mutateIn(PvLineView view, uint32_t tag, Fn &&fn) const
    {
        if (!view.bytes)
            return; // dropped: the update is lost, harmlessly
        int way = codec_.findTag(view.bytes, tag);
        uint64_t old =
            way >= 0 ? codec_.payloadAt(view.bytes, unsigned(way)) : 0;
        uint64_t next = fn(way >= 0, old);
        if (next == 0)
            return;
        if (way < 0)
            way = codec_.findFree(view.bytes);
        if (way < 0)
            way = int(victimWay(*view.ages));
        if (next != old || codec_.tagAt(view.bytes, unsigned(way)) != tag) {
            codec_.writeWay(view.bytes, unsigned(way), tag, next);
            *view.dirty = true;
        }
        touch(*view.ages, unsigned(way));
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
