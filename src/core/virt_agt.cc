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
    // The operand is the entry this access starts when its region
    // has none: the access is its trigger and its one block.
    const unsigned offset = geom_.blockOffset(addr);
    table().issue(geom_.regionTag(addr),
                  PvOp{this, PvOpKind::Mutate, 0,
                       pack(makePhtKey(pc, offset),
                            SpatialPattern(1) << offset)});
}

SpatialPattern
VirtualizedAgt::patternFor(Addr addr)
{
    probed_ = 0;
    table().issue(geom_.regionTag(addr), PvOp{this, PvOpKind::Find});
    return probed_;
}

void
VirtualizedAgt::complete(const PvOp &op, PvLineView view)
{
    if (op.kind == PvOpKind::Find) {
        probed_ = patternOf(table().findIn(view, op.tag));
        return;
    }
    const uint64_t fresh = op.operand;
    PhtKey ended_key = 0;
    SpatialPattern ended = 0;
    table().mutateIn(view, op.tag, [&](bool found, uint64_t old) {
        if (!found) {
            // Triggering access: a fresh one-block generation (the
            // dedicated AGT's filter-table entry).
            ++generationsStarted;
            return fresh;
        }
        SpatialPattern pattern = patternOf(old) | patternOf(fresh);
        if (unsigned(popCount(pattern)) >= blockBudget_) {
            // Budget reached: the generation completes, and the
            // region restarts with this access as the new trigger.
            ++generationsEnded;
            ended_key = triggerOf(old);
            ended = pattern;
            ++generationsStarted;
            return fresh;
        }
        return pack(triggerOf(old), pattern);
    });
    // Delivered once the entry is written, so a sink that reaches
    // the proxy again finds the line settled.
    if (ended != 0 && sink_)
        sink_(ended_key, ended);
}

} // namespace pvsim
