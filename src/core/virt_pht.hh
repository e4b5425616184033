/**
 * @file
 * The virtualized SMS Pattern History Table (paper Section 3.2):
 * the PHT stored in main memory behind a PVProxy, packed 11 entries
 * (11-bit tag + 32-bit pattern = 43 bits each) per 64-byte line.
 * Plugs into SmsPrefetcher wherever a dedicated SetAssocPht would —
 * the optimization engine is unchanged. A VirtEngine adapter: it can
 * share a multi-tenant proxy with other virtualized structures or
 * own a private one.
 */

#ifndef PVSIM_CORE_VIRT_PHT_HH
#define PVSIM_CORE_VIRT_PHT_HH

#include <memory>

#include "core/virt_engine.hh"
#include "prefetch/pht.hh"

namespace pvsim {

/** Virtualized PHT configuration. */
struct VirtPhtParams {
    /** Table geometry; the paper virtualizes 1K sets x 11 ways. */
    unsigned numSets = 1024;
    unsigned assoc = 11;
    /** PVProxy sizing (paper Section 4.6); owning ctor only. */
    PvProxyParams proxy;
};

/** PatternHistoryTable backed by the memory hierarchy. */
class VirtualizedPht : public PatternHistoryTable, public VirtEngine
{
  public:
    /** Payload bits per entry: the spatial pattern. */
    static constexpr unsigned kPatternBits = 32;

    /** Tag bits per entry of a num_sets-set table: what is left of
     *  the 21-bit PhtKey after the set index. */
    static unsigned tagBitsFor(unsigned num_sets);

    /**
     * Register as a tenant of a shared, externally owned proxy
     * (whose memory side must already be or later be connected).
     *
     * @param proxy    The shared per-core PVProxy.
     * @param name     Engine/stats name (e.g. "pht").
     * @param num_sets Table sets.
     * @param assoc    Entries per set.
     * @param qos      Tenant QoS contract (default: fair share).
     */
    VirtualizedPht(PvProxy &proxy, const std::string &name,
                   unsigned num_sets, unsigned assoc,
                   const PvTenantQos &qos = {});

    /**
     * Own a private single-tenant proxy (the seed's original shape).
     *
     * @param ctx      Simulation context (for the internal proxy).
     * @param params   Geometry and proxy sizing.
     * @param pv_start This core's PVStart register value.
     *
     * Call proxy().setMemSide(l2) before use.
     */
    VirtualizedPht(SimContext &ctx, const VirtPhtParams &params,
                   Addr pv_start);

    // PatternHistoryTable
    void lookup(PhtKey key, LookupCallback cb) override;
    void insert(PhtKey key, SpatialPattern pattern) override;

    /**
     * Dedicated on-chip storage: just the PVProxy (the PVTable
     * itself lives in memory). This is the paper's 889 bytes; when
     * the proxy is shared the figure covers all tenants.
     */
    uint64_t storageBits() const override
    {
        return proxyStorageBits();
    }

    std::string phtName() const override;
    std::string kindName() const override { return "pht"; }

    /** Entry width in bits (43 for the paper's geometry). */
    unsigned entryBits() const { return codec().entryBits(); }
};

} // namespace pvsim

#endif // PVSIM_CORE_VIRT_PHT_HH
