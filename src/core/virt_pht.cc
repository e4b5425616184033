#include "core/virt_pht.hh"

#include "util/intmath.hh"

namespace pvsim {

namespace {

PvSetCodec
phtCodec(unsigned num_sets, unsigned assoc)
{
    return PvSetCodec(assoc, VirtualizedPht::tagBitsFor(num_sets),
                      VirtualizedPht::kPatternBits);
}

} // anonymous namespace

unsigned
VirtualizedPht::tagBitsFor(unsigned num_sets)
{
    unsigned index_bits = unsigned(ceilLog2(num_sets));
    return index_bits >= kPhtKeyBits ? 1 : kPhtKeyBits - index_bits;
}

VirtualizedPht::VirtualizedPht(PvProxy &proxy,
                               const std::string &name,
                               unsigned num_sets, unsigned assoc,
                               const PvTenantQos &qos)
    : VirtEngine(proxy, name, phtCodec(num_sets, assoc), num_sets,
                 qos)
{
}

void
VirtualizedPht::lookup(PhtKey key, const PhtTrigger &trigger)
{
    table().issue(key, PvOp{this, PvOpKind::Find, 0, 0,
                            {trigger.pc, trigger.addr}});
}

void
VirtualizedPht::insert(PhtKey key, SpatialPattern pattern)
{
    if (pattern == 0)
        return; // nothing to learn; zero marks empty entries
    table().issue(key, PvOp{this, PvOpKind::Store, 0, pattern});
}

void
VirtualizedPht::complete(const PvOp &op, PvLineView view)
{
    if (op.kind == PvOpKind::Store) {
        table().storeIn(view, op.tag, op.operand);
        return;
    }
    const uint64_t payload = table().findIn(view, op.tag);
    answer(PhtTrigger{op.token[0], op.token[1]}, payload != 0,
           SpatialPattern(payload));
}

} // namespace pvsim
