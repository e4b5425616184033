#include "prefetch/agt.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pvsim {

ActiveGenerationTable::ActiveGenerationTable(
    const AgtParams &params, const RegionGeometry &geom,
    GenerationSink sink)
    : params_(params), geom_(geom), sink_(std::move(sink))
{
    pv_assert(params_.filterEntries > 0 && params_.accumEntries > 0,
              "AGT tables must be non-empty");
    filterTags_.assign(params_.filterEntries, kNoRegion);
    filter_.resize(params_.filterEntries);
    accumTags_.assign(params_.accumEntries, kNoRegion);
    accum_.resize(params_.accumEntries);
}

unsigned
ActiveGenerationTable::find(const std::vector<Addr> &tags,
                            Addr region_tag)
{
    for (unsigned i = 0; i < tags.size(); ++i) {
        if (tags[i] == region_tag)
            return i;
    }
    return kNone;
}

template <typename Entry>
unsigned
ActiveGenerationTable::lruEntry(const std::vector<Entry> &entries)
{
    unsigned lru = 0;
    for (unsigned i = 1; i < entries.size(); ++i) {
        if (entries[i].lastTouch < entries[lru].lastTouch)
            lru = i;
    }
    return lru;
}

void
ActiveGenerationTable::endGeneration(unsigned i)
{
    ++generationsEnded;
    const AccumEntry &e = accum_[i];
    sink_(makePhtKey(e.pc, e.offset), e.pattern);
    accumTags_[i] = kNoRegion;
}

bool
ActiveGenerationTable::recordAccess(Addr pc, Addr addr)
{
    Addr tag = geom_.regionTag(addr);
    unsigned offset = geom_.blockOffset(addr);

    if (unsigned a = find(accumTags_, tag); a != kNone) {
        accum_[a].pattern |= SpatialPattern(1) << offset;
        accum_[a].lastTouch = ++touchCounter_;
        return false;
    }

    if (unsigned fi = find(filterTags_, tag); fi != kNone) {
        FilterEntry &f = filter_[fi];
        if (f.offset == offset) {
            // Repeat access to the trigger block: still one block.
            f.lastTouch = ++touchCounter_;
            return false;
        }
        // Second distinct block: promote to the accumulation table.
        unsigned slot = find(accumTags_, kNoRegion);
        if (slot == kNone) {
            // Capacity: the LRU active generation ends early and its
            // pattern is transferred to the PHT.
            slot = lruEntry(accum_);
            ++accumEvictions;
            endGeneration(slot);
        }
        AccumEntry &e = accum_[slot];
        accumTags_[slot] = tag;
        e.pc = f.pc;
        e.offset = f.offset;
        e.pattern = (SpatialPattern(1) << f.offset) |
                    (SpatialPattern(1) << offset);
        e.lastTouch = ++touchCounter_;
        filterTags_[fi] = kNoRegion;
        return false;
    }

    // No active generation: this is a triggering access.
    unsigned slot = find(filterTags_, kNoRegion);
    if (slot == kNone) {
        // Filter eviction is silent: a one-access region is exactly
        // what the filter exists to keep out of the PHT.
        slot = lruEntry(filter_);
        ++filterEvictions;
        ++generationsFiltered;
    }
    FilterEntry &e = filter_[slot];
    filterTags_[slot] = tag;
    e.pc = pc;
    e.offset = uint8_t(offset);
    e.lastTouch = ++touchCounter_;
    return true;
}

void
ActiveGenerationTable::blockRemoved(Addr addr)
{
    Addr tag = geom_.regionTag(addr);
    unsigned offset = geom_.blockOffset(addr);

    if (unsigned a = find(accumTags_, tag); a != kNone) {
        if (accum_[a].pattern & (SpatialPattern(1) << offset))
            endGeneration(a);
        return;
    }
    if (unsigned fi = find(filterTags_, tag); fi != kNone) {
        if (filter_[fi].offset == offset) {
            // The lone accessed block left the cache: the generation
            // ends with one access and is filtered out.
            filterTags_[fi] = kNoRegion;
            ++generationsFiltered;
        }
    }
}

void
ActiveGenerationTable::flush()
{
    for (unsigned i = 0; i < accum_.size(); ++i) {
        if (accumTags_[i] != kNoRegion)
            endGeneration(i);
    }
    for (Addr &t : filterTags_) {
        if (t != kNoRegion) {
            t = kNoRegion;
            ++generationsFiltered;
        }
    }
}

unsigned
ActiveGenerationTable::activeFilterEntries() const
{
    return unsigned(params_.filterEntries -
                    std::count(filterTags_.begin(), filterTags_.end(),
                               kNoRegion));
}

unsigned
ActiveGenerationTable::activeAccumEntries() const
{
    return unsigned(params_.accumEntries -
                    std::count(accumTags_.begin(), accumTags_.end(),
                               kNoRegion));
}

bool
ActiveGenerationTable::isActive(Addr addr) const
{
    Addr tag = geom_.regionTag(addr);
    return find(accumTags_, tag) != kNone ||
           find(filterTags_, tag) != kNone;
}

SpatialPattern
ActiveGenerationTable::patternFor(Addr addr) const
{
    Addr tag = geom_.regionTag(addr);
    if (unsigned a = find(accumTags_, tag); a != kNone)
        return accum_[a].pattern;
    if (unsigned fi = find(filterTags_, tag); fi != kNone)
        return SpatialPattern(1) << filter_[fi].offset;
    return 0;
}

uint64_t
ActiveGenerationTable::storageBits(unsigned region_tag_bits) const
{
    // Filter: valid + region tag + 16-bit PC slice + 5-bit offset.
    uint64_t filter_bits =
        params_.filterEntries *
        (1ull + region_tag_bits + kPhtPcBits + kPhtOffsetBits);
    // Accumulation: adds the 32-bit pattern.
    uint64_t accum_bits =
        params_.accumEntries * (1ull + region_tag_bits + kPhtPcBits +
                                kPhtOffsetBits + 32);
    return filter_bits + accum_bits;
}

} // namespace pvsim
