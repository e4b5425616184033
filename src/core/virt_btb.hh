/**
 * @file
 * Virtualized Branch Target Buffer: the paper's future-work
 * suggestion ("we expect that there are other existing predictors,
 * such as branch target prediction, that will naturally benefit from
 * predictor virtualization", Section 6), built as a VirtEngine over
 * the same VirtualizedAssocTable as the PHT to show the framework's
 * generality — and able to share one multi-tenant PVProxy with it.
 *
 * Geometry: 8 entries of (16-bit tag + 46-bit target) = 62 bits each
 * = 496 bits per 64-byte line, sets configurable.
 */

#ifndef PVSIM_CORE_VIRT_BTB_HH
#define PVSIM_CORE_VIRT_BTB_HH

#include <functional>
#include <memory>

#include "core/virt_engine.hh"
#include "cpu/btb.hh"

namespace pvsim {

/** Virtualized BTB configuration. */
struct VirtBtbParams {
    unsigned numSets = 2048;
    unsigned assoc = 8;
    unsigned tagBits = 16;
    /** PVProxy sizing; owning ctor only. */
    PvProxyParams proxy;
};

/** Branch PC -> target predictor backed by the memory hierarchy. */
class VirtualizedBtb : public VirtEngine, public BtbPredictor
{
  public:
    using LookupCallback = BtbPredictor::LookupCallback;

    /** 46 target bits cover a 48-bit VA space of 4-byte-aligned
     *  PCs; each packed entry is tagBits + kTargetBits wide. */
    static constexpr unsigned kTargetBits = 46;

    /** Register as a tenant of a shared, externally owned proxy. */
    VirtualizedBtb(PvProxy &proxy, const std::string &name,
                   unsigned num_sets, unsigned assoc,
                   unsigned tag_bits, const PvTenantQos &qos = {});

    /** Own a private single-tenant proxy (original shape). */
    VirtualizedBtb(SimContext &ctx, const VirtBtbParams &params,
                   Addr pv_start);

    /**
     * Predict the target of the branch at pc. In timing mode the
     * callback may fire later (after the PV line fills) or report
     * not-found when the proxy drops the operation.
     */
    void lookup(Addr pc, LookupCallback cb) override;

    /** Learn/refresh a branch target. @pre target != 0. */
    void update(Addr pc, Addr target) override;

    std::string kindName() const override { return "btb"; }

    uint64_t storageBits() const { return proxyStorageBits(); }

  private:
    /** Branch PCs are (at least) 4-byte aligned. */
    static uint64_t keyOf(Addr pc) { return pc >> 2; }
};

} // namespace pvsim

#endif // PVSIM_CORE_VIRT_BTB_HH
