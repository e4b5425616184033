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
VirtualizedBtb::lookup(Addr pc, uint64_t token)
{
    table().issue(keyOf(pc), PvOp{this, PvOpKind::Find, 0, 0, {token, 0}});
}

void
VirtualizedBtb::update(Addr pc, Addr target)
{
    pv_assert(target != 0, "zero target is the empty marker");
    table().issue(keyOf(pc), PvOp{this, PvOpKind::Store, 0, target >> 2});
}

void
VirtualizedBtb::complete(const PvOp &op, PvLineView view)
{
    if (op.kind == PvOpKind::Store) {
        table().storeIn(view, op.tag, op.operand);
        return;
    }
    const uint64_t payload = table().findIn(view, op.tag);
    answer(op.token[0], payload != 0, Addr(payload) << 2);
}

} // namespace pvsim
