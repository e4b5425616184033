/**
 * @file
 * Virtualized stride predictor: a reference-prediction-table-style
 * PC-indexed stride table stored in main memory behind a PVProxy.
 * The third VirtEngine adapter (after the PHT and BTB), and the
 * template for every future "virtualize another structure" change:
 * pick a packing, register with the shared proxy, adapt the two or
 * three engine operations — about a hundred lines.
 *
 * Packed entry payload (43 bits, zero = empty as everywhere in PV):
 *   [0]      live marker, always 1 for a stored entry
 *   [28:1]   last accessed block number, low 28 bits
 *   [40:29]  last observed block stride, biased by +2048 (12 bits)
 *   [42:41]  2-bit confidence counter
 */

#ifndef PVSIM_CORE_VIRT_STRIDE_HH
#define PVSIM_CORE_VIRT_STRIDE_HH

#include <functional>
#include <memory>

#include "core/virt_engine.hh"

namespace pvsim {

/** Virtualized stride-table configuration. */
struct VirtStrideParams {
    unsigned numSets = 512;
    unsigned assoc = 8;
    unsigned tagBits = 14;
    /** Confirmations required before predicting. */
    unsigned threshold = 2;
    /** PVProxy sizing; owning ctor only. */
    PvProxyParams proxy;
};

/** PC -> (last block, stride, confidence) predictor in memory. */
class VirtualizedStride : public VirtEngine
{
  public:
    /** Fires once: confident prediction of the next block address. */
    using PredictCallback =
        std::function<void(bool confident, Addr next_block)>;

    /** Packed payload bits per entry (see file header); each entry
     *  is tagBits + kPayloadBits wide. */
    static constexpr unsigned kPayloadBits = 43;

    /** Register as a tenant of a shared, externally owned proxy. */
    VirtualizedStride(PvProxy &proxy, const std::string &name,
                      const VirtStrideParams &params,
                      const PvTenantQos &qos = {});

    /** Own a private single-tenant proxy. */
    VirtualizedStride(SimContext &ctx, const VirtStrideParams &params,
                      Addr pv_start);

    /**
     * Train on one (pc, data address) observation: one
     * read-modify-write operation against the shared proxy.
     */
    void observe(Addr pc, Addr addr);

    /**
     * Predict the next block the instruction at pc will touch.
     * Reports not-confident when the entry is absent, still
     * training, or the operation was dropped under buffer pressure.
     */
    void predict(Addr pc, PredictCallback cb);

    std::string kindName() const override { return "stride"; }

    unsigned threshold() const { return threshold_; }

  private:
    static uint64_t keyOf(Addr pc) { return pc >> 2; }

    // Payload field boundaries (see file header).
    static constexpr unsigned kBlockLowBits = 28;
    static constexpr unsigned kStrideBits = 12;
    static constexpr int64_t kStrideBias = 2048;

    static uint64_t pack(uint64_t block_low, int64_t stride,
                         unsigned confidence);
    static uint64_t blockLowOf(uint64_t payload);
    static int64_t strideOf(uint64_t payload);
    static unsigned confidenceOf(uint64_t payload);

    unsigned threshold_;
};

} // namespace pvsim

#endif // PVSIM_CORE_VIRT_STRIDE_HH
