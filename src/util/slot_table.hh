/**
 * @file
 * An open-addressed map from a 64-bit key to a 32-bit value, sized
 * once for a known maximum number of keys. The MSHR file finds an
 * entry by block address through it, and the SMS active generation
 * table finds an entry by region tag.
 */

#ifndef PVSIM_UTIL_SLOT_TABLE_HH
#define PVSIM_UTIL_SLOT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/intmath.hh"
#include "util/logging.hh"

namespace pvsim {

/**
 * A power of two of slots, at least twice the maximum key count, so
 * the table is at most half full. A probe starts at the key's home
 * slot, a multiplicative hash, and runs linearly to the first empty
 * slot. A deleted key's slot is refilled by backward shift from
 * later in its probe run, so no tombstones build up. Nothing is
 * allocated after construction. The owner bounds the key count:
 * inserting past it breaks the half-full guarantee.
 */
class SlotTable
{
  public:
    /** The one key that cannot be stored: the empty slot's key. */
    static constexpr uint64_t kEmptyKey = ~uint64_t(0);
    /** find()'s answer for an absent key. */
    static constexpr uint32_t kAbsent = ~uint32_t(0);

    explicit SlotTable(unsigned max_keys)
        : slots_(size_t(1) << ceilLog2(2 * std::max(max_keys, 1u))),
          shift_(64 - unsigned(ceilLog2(slots_.size())))
    {}

    /** The value stored for key, or kAbsent. */
    uint32_t
    find(uint64_t key) const
    {
        for (size_t s = homeSlot(key);; s = next(s)) {
            const Slot &slot = slots_[s];
            if (slot.key == key)
                return slot.value;
            if (slot.key == kEmptyKey)
                return kAbsent;
        }
    }

    /** Store value for key. @pre key is absent and not kEmptyKey. */
    void
    insert(uint64_t key, uint32_t value)
    {
        pv_assert(key != kEmptyKey, "slot table insert of the empty key");
        size_t s = homeSlot(key);
        for (; slots_[s].key != kEmptyKey; s = next(s))
            pv_assert(slots_[s].key != key, "duplicate slot table key");
        slots_[s] = {key, value};
    }

    /** Remove key. @pre key is present. */
    void
    erase(uint64_t key)
    {
        size_t hole = homeSlot(key);
        while (slots_[hole].key != key)
            hole = next(hole);
        // Backward shift: pull each later key of the run whose home
        // does not lie cyclically in (hole, s] back into the hole.
        for (size_t s = next(hole); slots_[s].key != kEmptyKey;
             s = next(s)) {
            const size_t home = homeSlot(slots_[s].key);
            if (((s - home) & mask()) >= ((s - hole) & mask())) {
                slots_[hole] = slots_[s];
                hole = s;
            }
        }
        slots_[hole].key = kEmptyKey;
    }

    /** Slots in the table. */
    size_t numSlots() const { return slots_.size(); }

    /** The slot a probe for key starts at. */
    size_t
    homeSlot(uint64_t key) const
    {
        return size_t((key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

  private:
    struct Slot {
        uint64_t key = kEmptyKey;
        uint32_t value = 0;
    };

    size_t mask() const { return slots_.size() - 1; }
    size_t next(size_t s) const { return (s + 1) & mask(); }

    std::vector<Slot> slots_;
    unsigned shift_;
};

} // namespace pvsim

#endif // PVSIM_UTIL_SLOT_TABLE_HH
