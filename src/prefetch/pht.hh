/**
 * @file
 * Pattern History Table interface and the dedicated (non-virtualized)
 * implementations. The PHT maps a 21-bit key — 16 PC bits
 * concatenated with the 5-bit trigger block offset (paper
 * Section 3.2.1) — to a 32-bit spatial pattern.
 *
 * A table answers lookups through a listener set once, when the
 * table is wired to its prefetcher: a dedicated table answers at
 * once, while the virtualized table (core/virt_pht) may answer
 * later, after its PVProxy fetches the set from the memory
 * hierarchy. This non-uniform latency is exactly the property the
 * paper argues SMS tolerates (Section 2.4).
 */

#ifndef PVSIM_PREFETCH_PHT_HH
#define PVSIM_PREFETCH_PHT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "prefetch/region.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace pvsim {

/** 21-bit PHT key: PC[15:0] << 5 | trigger offset[4:0]. */
using PhtKey = uint32_t;

/** Bits of PC used in the key (paper: 16). */
constexpr unsigned kPhtPcBits = 16;
/** Bits of trigger offset (paper: 5, for 32-block regions). */
constexpr unsigned kPhtOffsetBits = 5;
constexpr unsigned kPhtKeyBits = kPhtPcBits + kPhtOffsetBits;

/**
 * Build a PHT key. Instruction addresses are 4-byte aligned, so the
 * PC slice starts at bit 2.
 */
constexpr PhtKey
makePhtKey(Addr pc, unsigned trigger_offset)
{
    uint64_t pc_slice = bits(pc, 2 + kPhtPcBits - 1, 2);
    return PhtKey((pc_slice << kPhtOffsetBits) |
                  (trigger_offset & mask(kPhtOffsetBits)));
}

/** The access that triggered a lookup, handed back with its answer. */
struct PhtTrigger {
    Addr pc = 0;
    Addr addr = 0;
};

/** Hears the answers to a PHT's lookups. */
class PhtListener
{
  public:
    virtual ~PhtListener() = default;

    /** The answer to lookup(key, trigger): the pattern, if found. */
    virtual void phtAnswer(const PhtTrigger &trigger, bool found,
                           SpatialPattern pattern) = 0;
};

/** Abstract PHT: the predictor table the paper virtualizes. */
class PatternHistoryTable
{
  public:
    virtual ~PatternHistoryTable() = default;

    /** Where lookups are answered; set once, at wiring. */
    void setListener(PhtListener *listener) { listener_ = listener; }

    /**
     * Retrieve the pattern for key. The listener hears the answer
     * exactly once, with `trigger`: immediately for dedicated
     * tables, possibly later for virtualized ones.
     */
    virtual void lookup(PhtKey key, const PhtTrigger &trigger) = 0;

    /** Store (or update) the pattern for key. */
    virtual void insert(PhtKey key, SpatialPattern pattern) = 0;

    /** Dedicated on-chip storage in bits (Table 3 accounting). */
    virtual uint64_t storageBits() const = 0;

  protected:
    void
    answer(const PhtTrigger &trigger, bool found,
           SpatialPattern pattern)
    {
        pv_assert(listener_ != nullptr, "PHT lookup with no listener");
        listener_->phtAnswer(trigger, found, pattern);
    }

  private:
    PhtListener *listener_ = nullptr;
};

/** Unbounded PHT: the paper's "Infinite" configuration (Figure 4). */
class InfinitePht : public PatternHistoryTable
{
  public:
    void
    lookup(PhtKey key, const PhtTrigger &trigger) override
    {
        auto it = map_.find(key);
        if (it == map_.end())
            answer(trigger, false, 0);
        else
            answer(trigger, true, it->second);
    }

    void
    insert(PhtKey key, SpatialPattern pattern) override
    {
        map_[key] = pattern;
    }

    uint64_t
    storageBits() const override
    {
        // Unbounded by definition; report the current footprint.
        return uint64_t(map_.size()) * (kPhtKeyBits + 32);
    }

    size_t size() const { return map_.size(); }

  private:
    std::unordered_map<PhtKey, SpatialPattern> map_;
};

/** Geometry of a set-associative PHT. */
struct PhtGeometry {
    unsigned numSets = 1024;
    unsigned assoc = 11;

    /** Short name like "1K-11a" (paper's notation). */
    std::string
    label() const
    {
        std::string sets = numSets >= 1024 &&
                                   numSets % 1024 == 0
                               ? std::to_string(numSets / 1024) + "K"
                               : std::to_string(numSets);
        return sets + "-" + std::to_string(assoc) + "a";
    }

    /** Tag bits stored per entry given the 21-bit key space. */
    unsigned
    tagBits() const
    {
        unsigned index_bits = unsigned(ceilLog2(numSets));
        return index_bits >= kPhtKeyBits
                   ? 0
                   : kPhtKeyBits - index_bits;
    }

    /** Total entries. */
    uint64_t entries() const { return uint64_t(numSets) * assoc; }

    /** Dedicated storage in bits: tags + 32-bit patterns. */
    uint64_t
    storageBits() const
    {
        return entries() * (uint64_t(tagBits()) + 32);
    }
};

/**
 * Dedicated set-associative PHT with LRU replacement: the baseline
 * the paper starts from (1K sets x 16 or 11 ways) and the small
 * configurations it compares against (16/8 sets).
 */
class SetAssocPht : public PatternHistoryTable
{
  public:
    explicit SetAssocPht(const PhtGeometry &geom);

    void lookup(PhtKey key, const PhtTrigger &trigger) override;
    void insert(PhtKey key, SpatialPattern pattern) override;

    uint64_t storageBits() const override
    {
        return geom_.storageBits();
    }

    const PhtGeometry &geometry() const { return geom_; }

    /** Direct probe without LRU update (tests). */
    bool probe(PhtKey key, SpatialPattern &out) const;

  private:
    struct Entry {
        bool valid = false;
        uint32_t tag = 0;
        SpatialPattern pattern = 0;
        uint64_t lastTouch = 0;
    };

    unsigned setIndex(PhtKey key) const { return key % geom_.numSets; }
    uint32_t tagOf(PhtKey key) const { return key / geom_.numSets; }

    PhtGeometry geom_;
    std::vector<std::vector<Entry>> sets_;
    uint64_t touchCounter_ = 0;
};

} // namespace pvsim

#endif // PVSIM_PREFETCH_PHT_HH
