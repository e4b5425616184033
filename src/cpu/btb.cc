#include "cpu/btb.hh"

#include "util/logging.hh"

namespace pvsim {

DedicatedBtb::DedicatedBtb(const DedicatedBtbParams &params)
    : params_(params),
      entries_(size_t(params.numSets) * params.assoc)
{
    pv_assert(params_.numSets > 0 && params_.assoc > 0,
              "BTB needs at least one entry");
}

DedicatedBtb::Entry *
DedicatedBtb::find(unsigned set, uint32_t tag)
{
    Entry *row = &entries_[size_t(set) * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (row[w].target != 0 && row[w].tag == tag)
            return &row[w];
    }
    return nullptr;
}

void
DedicatedBtb::lookup(Addr pc, uint64_t token)
{
    uint64_t key = keyOf(pc);
    if (Entry *e = find(setOf(key), tagOf(key))) {
        e->lastTouch = ++touchClock_;
        answer(token, true, e->target);
        return;
    }
    answer(token, false, 0);
}

void
DedicatedBtb::update(Addr pc, Addr target)
{
    pv_assert(target != 0, "zero target is the empty marker");
    uint64_t key = keyOf(pc);
    unsigned set = setOf(key);
    uint32_t tag = tagOf(key);
    if (Entry *e = find(set, tag)) {
        e->target = target;
        e->lastTouch = ++touchClock_;
        return;
    }
    // Insert: first free way, else LRU victim.
    Entry *row = &entries_[size_t(set) * params_.assoc];
    Entry *victim = &row[0];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (row[w].target == 0) {
            victim = &row[w];
            break;
        }
        if (row[w].lastTouch < victim->lastTouch)
            victim = &row[w];
    }
    victim->tag = tag;
    victim->target = target;
    victim->lastTouch = ++touchClock_;
}

uint64_t
DedicatedBtb::storageBits() const
{
    // Matches the virtualized packing: tag + 46 target bits per
    // entry (core/virt_btb.cc's codec).
    return uint64_t(params_.numSets) * params_.assoc *
           (params_.tagBits + 46);
}

} // namespace pvsim
