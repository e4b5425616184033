#include "core/virt_agt.hh"

#include "util/bitfield.hh"

namespace pvsim {

namespace {

PvSetCodec
agtCodec(const VirtAgtParams &p)
{
    return PvSetCodec(p.assoc, p.tagBits, VirtualizedAgt::kPayloadBits);
}

} // anonymous namespace

VirtualizedAgt::VirtualizedAgt(PvProxy &proxy,
                               const std::string &name,
                               const VirtAgtParams &params,
                               const PvTenantQos &qos)
    : VirtEngine(proxy, name, agtCodec(params), params.numSets,
                 qos),
      geom_(), blockBudget_(std::max(2u, params.blockBudget))
{
}

uint64_t
VirtualizedAgt::pack(PhtKey trigger, SpatialPattern pattern)
{
    return 1 |
           ((uint64_t(trigger) & mask(int(kKeyBits))) << 1) |
           (uint64_t(pattern) << (1 + kKeyBits));
}

PhtKey
VirtualizedAgt::triggerOf(uint64_t payload)
{
    return PhtKey((payload >> 1) & mask(int(kKeyBits)));
}

SpatialPattern
VirtualizedAgt::patternOf(uint64_t payload)
{
    return SpatialPattern(payload >> (1 + kKeyBits));
}

void
VirtualizedAgt::observe(Addr pc, Addr addr)
{
    const uint64_t key = geom_.regionTag(addr);
    const unsigned offset = geom_.blockOffset(addr);
    const PhtKey trigger = makePhtKey(pc, offset);
    table().mutate(key, [this, trigger, offset](bool found,
                                                uint64_t old) {
        if (!found) {
            // Triggering access: a fresh one-block generation (the
            // dedicated AGT's filter-table entry).
            ++generationsStarted;
            return pack(trigger, SpatialPattern(1) << offset);
        }
        SpatialPattern pattern =
            patternOf(old) | (SpatialPattern(1) << offset);
        if (unsigned(popCount(pattern)) >= blockBudget_) {
            // Budget reached: the generation completes. Deliver it
            // and restart the region with this access as the new
            // trigger.
            ++generationsEnded;
            if (sink_)
                sink_(triggerOf(old), pattern);
            ++generationsStarted;
            return pack(trigger, SpatialPattern(1) << offset);
        }
        return pack(triggerOf(old), pattern);
    });
}

SpatialPattern
VirtualizedAgt::patternFor(Addr addr)
{
    SpatialPattern result = 0;
    table().find(geom_.regionTag(addr),
                 [&result](bool found, uint64_t payload) {
        if (found)
            result = patternOf(payload);
    });
    return result;
}

} // namespace pvsim
