#include "prefetch/pht.hh"

namespace pvsim {

SetAssocPht::SetAssocPht(const PhtGeometry &geom) : geom_(geom)
{
    pv_assert(geom_.numSets > 0 && geom_.assoc > 0,
              "PHT geometry must be non-empty");
    sets_.resize(geom_.numSets);
    for (auto &set : sets_)
        set.resize(geom_.assoc);
}

void
SetAssocPht::lookup(PhtKey key, const PhtTrigger &trigger)
{
    auto &set = sets_[setIndex(key)];
    uint32_t tag = tagOf(key);
    for (auto &e : set) {
        if (e.valid && e.tag == tag) {
            e.lastTouch = ++touchCounter_;
            answer(trigger, true, e.pattern);
            return;
        }
    }
    answer(trigger, false, 0);
}

void
SetAssocPht::insert(PhtKey key, SpatialPattern pattern)
{
    auto &set = sets_[setIndex(key)];
    uint32_t tag = tagOf(key);

    Entry *victim = nullptr;
    for (auto &e : set) {
        if (e.valid && e.tag == tag) {
            // Update in place.
            e.pattern = pattern;
            e.lastTouch = ++touchCounter_;
            return;
        }
        if (!victim && !e.valid)
            victim = &e;
    }
    if (!victim) {
        victim = &set[0];
        for (auto &e : set) {
            if (e.lastTouch < victim->lastTouch)
                victim = &e;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->pattern = pattern;
    victim->lastTouch = ++touchCounter_;
}

bool
SetAssocPht::probe(PhtKey key, SpatialPattern &out) const
{
    const auto &set = sets_[key % geom_.numSets];
    uint32_t tag = key / geom_.numSets;
    for (const auto &e : set) {
        if (e.valid && e.tag == tag) {
            out = e.pattern;
            return true;
        }
    }
    return false;
}

} // namespace pvsim
