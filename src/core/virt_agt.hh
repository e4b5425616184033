/**
 * @file
 * Virtualized Active Generation Table: the SMS structure the paper
 * leaves in SRAM (Section 3.1's filter + accumulation tables),
 * virtualized as one more VirtEngine tenant — with the PHT and BTB
 * adapters, every SMS table can now live behind the shared proxy.
 * The third adapter, and the heaviest read-modify-write tenant:
 * every observed access is one Mutate op against the shared proxy
 * (the PHT reads-then-stores, the BTB mostly stores; the AGT
 * accumulates in place, in complete()).
 *
 * Semantics differ from the dedicated AGT in one honest way: the
 * dedicated table ends a generation when one of its blocks leaves
 * the L1 (an event the cache wires to the SMS listener); a
 * virtualized tenant driven from the core's reference stream has no
 * eviction feed, so generations end either by *block budget* (the
 * accumulated pattern reaching a configured population — dense
 * generations complete and re-trigger; sparse ones play the filter
 * table's role and die quietly) or by set-conflict replacement in
 * the virtualized table (the entry simply disappears, as PV's
 * advisory-data contract allows). Completed generations are
 * delivered to an optional sink as (PhtKey, SpatialPattern),
 * exactly like the dedicated AGT.
 *
 * Packed entry payload (54 bits, zero = empty as everywhere in PV):
 *   [0]      live marker, always 1 for a stored entry
 *   [21:1]   trigger PhtKey (16 pc bits + 5 offset bits)
 *   [53:22]  accumulated spatial pattern (32 bits)
 */

#ifndef PVSIM_CORE_VIRT_AGT_HH
#define PVSIM_CORE_VIRT_AGT_HH

#include <functional>

#include "core/virt_engine.hh"
#include "prefetch/pht.hh"
#include "prefetch/region.hh"

namespace pvsim {

/** Virtualized AGT configuration. */
struct VirtAgtParams {
    /** Small, like the dedicated AGT (paper: "less than 1 KB"). */
    unsigned numSets = 32;
    unsigned assoc = 4;
    unsigned tagBits = 12;
    /** Distinct blocks after which a generation completes. */
    unsigned blockBudget = 8;
};

/** Region -> in-flight spatial generation, in the memory hierarchy. */
class VirtualizedAgt : public VirtEngine
{
  public:
    /** Fired when a generation ends with >= 2 accessed blocks. */
    using GenerationSink =
        std::function<void(PhtKey key, SpatialPattern pattern)>;

    /** Packed payload bits per entry (see file header); each entry
     *  is tagBits + kPayloadBits wide. */
    static constexpr unsigned kPayloadBits = 54;

    /** Register as a tenant of a shared, externally owned proxy. */
    VirtualizedAgt(PvProxy &proxy, const std::string &name,
                   const VirtAgtParams &params,
                   const PvTenantQos &qos = {});

    /** Completed generations go here (optional; default: dropped). */
    void setSink(GenerationSink sink) { sink_ = std::move(sink); }

    /**
     * Observe one demand reference: one read-modify-write operation
     * against the shared proxy. Starts, extends, completes (at the
     * touch budget) or restarts the region's generation.
     */
    void observe(Addr pc, Addr addr);

    /** Accumulated pattern of addr's region (0 when absent/dropped;
     *  functional-mode introspection for tests). */
    SpatialPattern patternFor(Addr addr);

    /** The read-modify-write of observe(), or patternFor()'s read. */
    void complete(const PvOp &op, PvLineView view) override;

    std::string kindName() const override { return "agt"; }

    const RegionGeometry &geometry() const { return geom_; }

    // Statistics (in addition to the proxy's per-tenant scope).
    uint64_t generationsEnded = 0;   ///< delivered to the sink
    uint64_t generationsStarted = 0; ///< fresh entries written

  private:
    // Payload field boundaries (see file header).
    static constexpr unsigned kKeyBits = kPhtKeyBits; // 21
    static constexpr unsigned kPatternBits = 32;

    static uint64_t pack(PhtKey trigger, SpatialPattern pattern);
    static PhtKey triggerOf(uint64_t payload);
    static SpatialPattern patternOf(uint64_t payload);

    RegionGeometry geom_;
    GenerationSink sink_;
    unsigned blockBudget_;
    /** What patternFor()'s Find op read. */
    SpatialPattern probed_ = 0;
};

} // namespace pvsim

#endif // PVSIM_CORE_VIRT_AGT_HH
