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
VirtualizedPht::lookup(PhtKey key, LookupCallback cb)
{
    table().find(key, [cb = std::move(cb)](bool found,
                                           uint64_t payload) {
        cb(found, SpatialPattern(payload));
    });
}

void
VirtualizedPht::insert(PhtKey key, SpatialPattern pattern)
{
    if (pattern == 0)
        return; // nothing to learn; zero marks empty entries
    table().store(key, pattern);
}

} // namespace pvsim
