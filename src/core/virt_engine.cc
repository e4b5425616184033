#include "core/virt_engine.hh"

namespace pvsim {

const char *
virtEngineKindName(VirtEngineKind kind)
{
    switch (kind) {
      case VirtEngineKind::Pht: return "pht";
      case VirtEngineKind::Btb: return "btb";
      case VirtEngineKind::Agt: return "agt";
    }
    return "unknown";
}

VirtEngine::VirtEngine(PvProxy &proxy, const std::string &name,
                       const PvSetCodec &codec, unsigned num_sets,
                       const PvTenantQos &qos)
    : proxy_(&proxy), name_(name), codec_(codec),
      tableId_(proxy.registerEngine(
          {name, num_sets, codec.usedBits(), qos})),
      table_(&proxy, tableId_, codec_)
{
}

} // namespace pvsim
