/**
 * @file
 * Branch target buffer interfaces: the predictor seam the core
 * fetches through, plus a conventional dedicated-SRAM BTB.
 *
 * Two implementations exist: DedicatedBtb (below) models the
 * on-chip table a real front end owns, and VirtualizedBtb
 * (core/virt_btb.hh) stores the same table in the memory hierarchy
 * behind a PVProxy. Both answer through the same callback-style
 * lookup so the core is agnostic — which is what makes matched-pair
 * "dedicated SRAM vs virtualized" IPC comparisons (Figure 9-style)
 * possible.
 */

#ifndef PVSIM_CPU_BTB_HH
#define PVSIM_CPU_BTB_HH

#include <functional>
#include <vector>

#include "sim/types.hh"
#include "util/bitfield.hh"

namespace pvsim {

/** Target predictor the core consults for every taken branch. */
class BtbPredictor
{
  public:
    /**
     * Result delivery for lookup(); fires exactly once. A dedicated
     * BTB answers synchronously; a virtualized one may answer later
     * (after a PV fill) or report not-found under buffer pressure.
     */
    using LookupCallback =
        std::function<void(bool found, Addr target)>;

    virtual ~BtbPredictor() = default;

    /** Predict the target of the branch at pc. */
    virtual void lookup(Addr pc, LookupCallback cb) = 0;

    /** Learn/refresh a branch target. @pre target != 0. */
    virtual void update(Addr pc, Addr target) = 0;
};

/** Dedicated BTB geometry (mirrors VirtEngineConfig's BTB fields). */
struct DedicatedBtbParams {
    unsigned numSets = 2048;
    unsigned assoc = 8;
    unsigned tagBits = 16;
};

/**
 * Conventional set-associative BTB held in dedicated SRAM: always
 * answers synchronously, never generates memory traffic. Indexing
 * and tagging mirror VirtualizedAssocTable (key = pc >> 2, set =
 * key % sets, tag = (key / sets) masked) so a capacity-equal
 * dedicated/virtualized pair learns the same working set and the
 * matched-pair IPC delta isolates the cost of virtualization.
 */
class DedicatedBtb final : public BtbPredictor
{
  public:
    explicit DedicatedBtb(const DedicatedBtbParams &params);

    void lookup(Addr pc, LookupCallback cb) override;
    void update(Addr pc, Addr target) override;

    /** Dedicated on-chip storage: tag + 46-bit target per entry. */
    uint64_t storageBits() const;

    unsigned numSets() const { return params_.numSets; }
    unsigned assoc() const { return params_.assoc; }

  private:
    struct Entry {
        uint32_t tag = 0;
        Addr target = 0; ///< 0 marks an empty way
        uint64_t lastTouch = 0;
    };

    static uint64_t keyOf(Addr pc) { return pc >> 2; }
    unsigned setOf(uint64_t key) const
    {
        return unsigned(key % params_.numSets);
    }
    uint32_t
    tagOf(uint64_t key) const
    {
        return uint32_t((key / params_.numSets) &
                        mask(int(params_.tagBits)));
    }
    Entry *find(unsigned set, uint32_t tag);

    DedicatedBtbParams params_;
    std::vector<Entry> entries_; ///< numSets x assoc, row-major
    uint64_t touchClock_ = 0;    ///< LRU timestamp source
};

} // namespace pvsim

#endif // PVSIM_CPU_BTB_HH
