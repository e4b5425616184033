/**
 * @file
 * The engine factory: the one translation point from a generic
 * registry entry (VirtEngineConfig) to a concrete Virt* adapter.
 * Harnesses iterate their registry and call makeEngine(); nothing
 * outside this file constructs an adapter from a config, so adding
 * a fifth engine kind is a case here plus the enum value.
 */

#include "core/virt_agt.hh"
#include "core/virt_btb.hh"
#include "core/virt_engine.hh"
#include "core/virt_pht.hh"
#include "core/virt_stride.hh"
#include "util/logging.hh"

namespace pvsim {

std::unique_ptr<VirtEngine>
makeEngine(VirtEngineKind kind, const VirtEngineConfig &cfg,
           PvProxy &proxy)
{
    switch (kind) {
      case VirtEngineKind::Pht:
        return std::make_unique<VirtualizedPht>(
            proxy, cfg.scopeName(), cfg.numSets, cfg.assoc, cfg.qos);
      case VirtEngineKind::Btb:
        return std::make_unique<VirtualizedBtb>(
            proxy, cfg.scopeName(), cfg.numSets, cfg.assoc,
            cfg.tagBits, cfg.qos);
      case VirtEngineKind::Stride: {
        VirtStrideParams sp;
        sp.numSets = cfg.numSets;
        sp.assoc = cfg.assoc;
        sp.tagBits = cfg.tagBits;
        return std::make_unique<VirtualizedStride>(
            proxy, cfg.scopeName(), sp, cfg.qos);
      }
      case VirtEngineKind::Agt: {
        VirtAgtParams ap;
        ap.numSets = cfg.numSets;
        ap.assoc = cfg.assoc;
        ap.tagBits = cfg.tagBits;
        return std::make_unique<VirtualizedAgt>(
            proxy, cfg.scopeName(), ap, cfg.qos);
      }
    }
    pv_assert(false, "unknown VirtEngineKind %d", int(kind));
    return nullptr;
}

unsigned
virtEngineEntryBits(const VirtEngineConfig &cfg)
{
    switch (cfg.kind) {
      case VirtEngineKind::Pht:
        return VirtualizedPht::tagBitsFor(cfg.numSets) +
               VirtualizedPht::kPatternBits;
      case VirtEngineKind::Btb:
        return cfg.tagBits + VirtualizedBtb::kTargetBits;
      case VirtEngineKind::Stride:
        return cfg.tagBits + VirtualizedStride::kPayloadBits;
      case VirtEngineKind::Agt:
        return cfg.tagBits + VirtualizedAgt::kPayloadBits;
    }
    pv_assert(false, "unknown VirtEngineKind %d", int(cfg.kind));
    return 0;
}

} // namespace pvsim
