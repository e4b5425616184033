/**
 * @file
 * Branch target buffer interfaces: the predictor seam the core
 * fetches through, plus a conventional dedicated-SRAM BTB.
 *
 * Two implementations exist: DedicatedBtb (below) models the
 * on-chip table a real front end owns, and VirtualizedBtb
 * (core/virt_btb.hh) stores the same table in the memory hierarchy
 * behind a PVProxy. Both answer lookups through the same listener,
 * set once when the core attaches the BTB, so the core is agnostic —
 * which is what makes matched-pair "dedicated SRAM vs virtualized"
 * IPC comparisons (Figure 9-style) possible.
 */

#ifndef PVSIM_CPU_BTB_HH
#define PVSIM_CPU_BTB_HH

#include <vector>

#include "sim/types.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace pvsim {

/** Hears the answers to a BTB's lookups. */
class BtbListener
{
  public:
    virtual ~BtbListener() = default;

    /** The answer to lookup(pc, token): the target, if found. */
    virtual void btbAnswer(uint64_t token, bool found, Addr target) = 0;
};

/** Target predictor the core consults for every taken branch. */
class BtbPredictor
{
  public:
    virtual ~BtbPredictor() = default;

    /** Where lookups are answered; set once, at wiring. */
    void setListener(BtbListener *listener) { listener_ = listener; }

    /**
     * Predict the target of the branch at pc. The listener hears the
     * answer exactly once, with `token`. A dedicated BTB answers at
     * once; a virtualized one may answer later (after a PV fill) or
     * report not-found under buffer pressure.
     */
    virtual void lookup(Addr pc, uint64_t token) = 0;

    /** Learn/refresh a branch target. @pre target != 0. */
    virtual void update(Addr pc, Addr target) = 0;

  protected:
    void
    answer(uint64_t token, bool found, Addr target)
    {
        pv_assert(listener_ != nullptr, "BTB lookup with no listener");
        listener_->btbAnswer(token, found, target);
    }

  private:
    BtbListener *listener_ = nullptr;
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

    void lookup(Addr pc, uint64_t token) override;
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
