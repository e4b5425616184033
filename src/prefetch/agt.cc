#include "prefetch/agt.hh"

#include "util/intmath.hh"
#include "util/logging.hh"

namespace pvsim {

ActiveGenerationTable::Occupancy::Occupancy(unsigned entries)
    : free_(divideCeil(entries, 64), 0),
      nonEmpty_(divideCeil(divideCeil(entries, 64), 64), 0),
      prev_(entries + 1), next_(entries + 1)
{
    for (unsigned i = 0; i < entries; ++i)
        free_[i / 64] |= uint64_t(1) << (i % 64);
    for (size_t w = 0; w < free_.size(); ++w)
        nonEmpty_[w / 64] |= uint64_t(1) << (w % 64);
    prev_[sentinel()] = next_[sentinel()] = sentinel();
}

unsigned
ActiveGenerationTable::Occupancy::lowestFree() const
{
    size_t s = 0;
    while (nonEmpty_[s] == 0)
        ++s;
    const size_t w = s * 64 + unsigned(__builtin_ctzll(nonEmpty_[s]));
    return unsigned(w * 64 + unsigned(__builtin_ctzll(free_[w])));
}

void
ActiveGenerationTable::Occupancy::fill(unsigned i)
{
    uint64_t &word = free_[i / 64];
    word &= ~(uint64_t(1) << (i % 64));
    if (word == 0)
        nonEmpty_[i / 4096] &= ~(uint64_t(1) << (i / 64 % 64));
    append(i);
    ++used_;
}

void
ActiveGenerationTable::Occupancy::touch(unsigned i)
{
    unlink(i);
    append(i);
}

void
ActiveGenerationTable::Occupancy::release(unsigned i)
{
    free_[i / 64] |= uint64_t(1) << (i % 64);
    nonEmpty_[i / 4096] |= uint64_t(1) << (i / 64 % 64);
    unlink(i);
    --used_;
}

void
ActiveGenerationTable::Occupancy::unlink(unsigned i)
{
    next_[prev_[i]] = next_[i];
    prev_[next_[i]] = prev_[i];
}

void
ActiveGenerationTable::Occupancy::append(unsigned i)
{
    const unsigned tail = prev_[sentinel()];
    next_[tail] = i;
    prev_[i] = tail;
    next_[i] = sentinel();
    prev_[sentinel()] = i;
}

ActiveGenerationTable::ActiveGenerationTable(
    const AgtParams &params, const RegionGeometry &geom,
    GenerationSink sink)
    : params_(params), geom_(geom), sink_(std::move(sink)),
      filter_(params.filterEntries), accum_(params.accumEntries),
      filterUse_(params.filterEntries), accumUse_(params.accumEntries),
      index_(params.filterEntries + params.accumEntries)
{
    pv_assert(params_.filterEntries > 0 && params_.accumEntries > 0,
              "AGT tables must be non-empty");
}

void
ActiveGenerationTable::releaseFilter(unsigned i)
{
    index_.erase(filter_[i].tag);
    filter_[i].tag = kNoRegion;
    filterUse_.release(i);
}

void
ActiveGenerationTable::releaseAccum(unsigned i)
{
    index_.erase(accum_[i].tag);
    accum_[i].tag = kNoRegion;
    accumUse_.release(i);
}

void
ActiveGenerationTable::endGeneration(unsigned i)
{
    ++generationsEnded;
    const AccumEntry &e = accum_[i];
    sink_(makePhtKey(e.pc, e.offset), e.pattern);
    // The sink's own memory traffic (a virtualized PHT's fill in
    // functional mode) can invalidate an L1D block and so end this
    // very generation through blockRemoved before it returns.
    if (e.tag != kNoRegion)
        releaseAccum(i);
}

bool
ActiveGenerationTable::recordAccess(Addr pc, Addr addr)
{
    const Addr tag = geom_.regionTag(addr);
    const unsigned offset = geom_.blockOffset(addr);
    const uint32_t at = index_.find(tag);

    if (at == SlotTable::kAbsent) {
        // No active generation: this is a triggering access.
        unsigned slot;
        if (!filterUse_.full()) {
            slot = filterUse_.lowestFree();
        } else {
            // Filter eviction is silent: a one-access region is
            // exactly what the filter exists to keep out of the PHT.
            slot = filterUse_.lru();
            ++filterEvictions;
            ++generationsFiltered;
            releaseFilter(slot);
        }
        FilterEntry &f = filter_[slot];
        f.tag = tag;
        f.pc = pc;
        f.offset = uint8_t(offset);
        filterUse_.fill(slot);
        index_.insert(tag, slot | kFilterBit);
        return true;
    }

    if (!(at & kFilterBit)) {
        accum_[at].pattern |= SpatialPattern(1) << offset;
        accumUse_.touch(at);
        return false;
    }

    const unsigned fi = at & ~kFilterBit;
    const FilterEntry &f = filter_[fi];
    if (f.offset == offset) {
        // Repeat access to the trigger block: still one block.
        filterUse_.touch(fi);
        return false;
    }
    // Second distinct block: promote to the accumulation table.
    unsigned slot;
    if (!accumUse_.full()) {
        slot = accumUse_.lowestFree();
    } else {
        // Capacity: the LRU active generation ends early and its
        // pattern is transferred to the PHT.
        slot = accumUse_.lru();
        ++accumEvictions;
        endGeneration(slot);
    }
    AccumEntry &e = accum_[slot];
    e.tag = tag;
    e.pc = f.pc;
    e.offset = f.offset;
    e.pattern = (SpatialPattern(1) << f.offset) |
                (SpatialPattern(1) << offset);
    // The filter entry keeps its trigger even if the sink above
    // already ended its generation.
    if (f.tag != kNoRegion)
        releaseFilter(fi);
    accumUse_.fill(slot);
    index_.insert(tag, slot);
    return false;
}

void
ActiveGenerationTable::blockRemoved(Addr addr)
{
    const uint32_t at = index_.find(geom_.regionTag(addr));
    if (at == SlotTable::kAbsent)
        return;
    const unsigned offset = geom_.blockOffset(addr);

    if (!(at & kFilterBit)) {
        if (accum_[at].pattern & (SpatialPattern(1) << offset))
            endGeneration(at);
        return;
    }
    const unsigned fi = at & ~kFilterBit;
    if (filter_[fi].offset == offset) {
        // The lone accessed block left the cache: the generation
        // ends with one access and is filtered out.
        releaseFilter(fi);
        ++generationsFiltered;
    }
}

void
ActiveGenerationTable::flush()
{
    for (unsigned i = 0; i < accum_.size(); ++i) {
        if (accum_[i].tag != kNoRegion)
            endGeneration(i);
    }
    for (unsigned i = 0; i < filter_.size(); ++i) {
        if (filter_[i].tag != kNoRegion) {
            releaseFilter(i);
            ++generationsFiltered;
        }
    }
}

unsigned
ActiveGenerationTable::activeFilterEntries() const
{
    return filterUse_.used();
}

unsigned
ActiveGenerationTable::activeAccumEntries() const
{
    return accumUse_.used();
}

bool
ActiveGenerationTable::isActive(Addr addr) const
{
    return index_.find(geom_.regionTag(addr)) != SlotTable::kAbsent;
}

SpatialPattern
ActiveGenerationTable::patternFor(Addr addr) const
{
    const uint32_t at = index_.find(geom_.regionTag(addr));
    if (at == SlotTable::kAbsent)
        return 0;
    if (!(at & kFilterBit))
        return accum_[at].pattern;
    return SpatialPattern(1) << filter_[at & ~kFilterBit].offset;
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
