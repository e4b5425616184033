/**
 * @file
 * VirtEngine: the abstract base of every virtualized optimization
 * engine. The paper pitches PV as "a general framework for emulating
 * otherwise impractical to implement predictors" whose key economy
 * is *sharing* one in-memory PV space among many engines; this class
 * is that framework's seam. A concrete engine (PHT, BTB, AGT)
 * supplies a packing codec and a set count, registers itself as
 * one tenant of a (possibly shared) PvProxy, and talks to its
 * segment through a VirtualizedAssocTable: it issues each operation
 * as a PvOp and finishes it in complete(), the one virtual call the
 * proxy makes back into it, keyed by the op's kind. Name, table-id,
 * codec, storage accounting, and per-engine statistics all hang off
 * this base, so virtualizing one more structure is a ~100-line
 * adapter.
 */

#ifndef PVSIM_CORE_VIRT_ENGINE_HH
#define PVSIM_CORE_VIRT_ENGINE_HH

#include <memory>
#include <string>

#include "core/virt_table.hh"

namespace pvsim {

/** Kinds of engines the System registry can instantiate. */
enum class VirtEngineKind { Pht, Btb, Agt };

const char *virtEngineKindName(VirtEngineKind kind);

/**
 * One entry of the System's engine registry: which structure to
 * virtualize for each core and with what geometry. Kind-specific
 * fields are ignored by the other kinds.
 */
struct VirtEngineConfig {
    VirtEngineKind kind = VirtEngineKind::Btb;
    /** Stats scope under the proxy; defaults to the kind name.
     *  Tenant names must be unique per proxy — give two engines of
     *  the same kind explicit distinct names. */
    std::string name;
    unsigned numSets = 2048;
    unsigned assoc = 8;
    /** Tag bits per entry (BTB and AGT). */
    unsigned tagBits = 16;
    /** QoS contract on the shared per-core proxy (pv_qos.hh); the
     *  default keeps the legacy fair-share policy. */
    PvTenantQos qos;

    std::string
    scopeName() const
    {
        return name.empty() ? virtEngineKindName(kind) : name;
    }
};

/** A virtualized predictor table registered with a PvProxy. */
class VirtEngine : public PvOpTarget
{
  public:
    /**
     * Register as one tenant of an externally owned, shared proxy.
     *
     * @param proxy    The (multi-tenant) proxy to register with.
     * @param name     Engine name; becomes the per-engine stats
     *                 scope "<proxy>.<name>".
     * @param codec    Packing geometry of this engine's sets.
     * @param num_sets Sets in the virtualized table.
     * @param qos      QoS contract over the proxy's shared PVCache,
     *                 MSHRs and pattern buffer (pv_qos.hh); the
     *                 default keeps the legacy fair-share policy.
     */
    VirtEngine(PvProxy &proxy, const std::string &name,
               const PvSetCodec &codec, unsigned num_sets,
               const PvTenantQos &qos = {});

    ~VirtEngine() override = default;

    VirtEngine(const VirtEngine &) = delete;
    VirtEngine &operator=(const VirtEngine &) = delete;

    /** What kind of predictor this engine virtualizes. */
    virtual std::string kindName() const = 0;

    const std::string &engineName() const { return name_; }
    unsigned tableId() const { return tableId_; }
    const PvSetCodec &codec() const { return codec_; }
    VirtualizedAssocTable &table() { return table_; }
    PvProxy &proxy() { return table_.proxy(); }
    const PvProxy &proxy() const { return *proxy_; }

    /** This engine's segment of the PV region. */
    const PvTableLayout &segment() const
    {
        return proxy_->engineLayout(tableId_);
    }

    /** In-memory footprint of the virtualized table. */
    uint64_t tableBytes() const { return segment().tableBytes(); }

    /** Per-engine statistics scope on the shared proxy. */
    PvProxy::EngineStats &engineStats()
    {
        return proxy_->engineStats(tableId_);
    }

    /** This tenant's QoS contract on the shared proxy. */
    const PvTenantQos &qos() const
    {
        return proxy_->tenantQos(tableId_);
    }

    /**
     * Dedicated on-chip storage in bits. The proxy is the only
     * dedicated hardware; when it is shared by N tenants, each is
     * billed its registration's share of nothing extra — the whole
     * proxy is reported, as the paper's Section 4.6 accounting does
     * for the single-tenant case.
     */
    uint64_t proxyStorageBits() const
    {
        return proxy_->storageBreakdown().totalBits();
    }

  private:
    PvProxy *proxy_;
    std::string name_;
    PvSetCodec codec_;
    unsigned tableId_;
    VirtualizedAssocTable table_;
};

/**
 * Construct the adapter for `kind` as one tenant of `proxy`,
 * translating the registry entry's generic geometry into the
 * adapter's own parameters. The single place that knows how each
 * kind is built — registries and harnesses hold VirtEngineConfigs
 * and never special-case kinds themselves (virt_factory.cc).
 */
std::unique_ptr<VirtEngine> makeEngine(VirtEngineKind kind,
                                       const VirtEngineConfig &cfg,
                                       PvProxy &proxy);

/**
 * Width in bits of one packed entry (tag + payload) of the table
 * makeEngine would build for cfg. A set of cfg.assoc such entries
 * must fit one PV line; config validation checks that with this
 * instead of letting the codec's assertion abort the process.
 */
unsigned virtEngineEntryBits(const VirtEngineConfig &cfg);

} // namespace pvsim

#endif // PVSIM_CORE_VIRT_ENGINE_HH
