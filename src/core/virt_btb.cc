#include "core/virt_btb.hh"

namespace pvsim {

namespace {

PvSetCodec
btbCodec(unsigned assoc, unsigned tag_bits)
{
    return PvSetCodec(assoc, tag_bits, VirtualizedBtb::kTargetBits);
}

} // anonymous namespace

VirtualizedBtb::VirtualizedBtb(PvProxy &proxy,
                               const std::string &name,
                               unsigned num_sets, unsigned assoc,
                               unsigned tag_bits,
                               const PvTenantQos &qos)
    : VirtEngine(proxy, name, btbCodec(assoc, tag_bits), num_sets,
                 qos)
{
}

void
VirtualizedBtb::lookup(Addr pc, LookupCallback cb)
{
    table().find(keyOf(pc),
                 [cb = std::move(cb)](bool found, uint64_t payload) {
        cb(found, Addr(payload) << 2);
    });
}

void
VirtualizedBtb::update(Addr pc, Addr target)
{
    pv_assert(target != 0, "zero target is the empty marker");
    table().store(keyOf(pc), target >> 2);
}

} // namespace pvsim
