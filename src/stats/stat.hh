/**
 * @file
 * Statistics primitives modeled after gem5's stats package: named,
 * described counters that register with a Group and can be dumped as
 * text. Only the kinds the simulator needs are provided: Scalar
 * (counter) and Distribution (histogram).
 */

#ifndef PVSIM_STATS_STAT_HH
#define PVSIM_STATS_STAT_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace pvsim {
namespace stats {

class Group;

/** Base class for all statistics: identity plus dump/reset hooks. */
class Stat
{
  public:
    Stat(Group *parent, const std::string &name,
         const std::string &desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Write one or more "name value # desc" lines. */
    virtual void dump(std::ostream &os,
                      const std::string &prefix) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonic counter; also usable as a plain settable value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(uint64_t v) { value_ += v; return *this; }
    void set(uint64_t v) { value_ = v; }
    uint64_t value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/**
 * Fixed-bucket histogram over [min, max) with underflow/overflow
 * bins; also tracks mean and extrema of the sampled values.
 */
class Distribution : public Stat
{
  public:
    Distribution(Group *parent, const std::string &name,
                 const std::string &desc, uint64_t min, uint64_t max,
                 uint64_t bucket_size);

    void sample(uint64_t v);

    uint64_t samples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / double(samples_) : 0; }
    uint64_t minSampled() const { return minSampled_; }
    uint64_t maxSampled() const { return maxSampled_; }
    uint64_t bucketCount(size_t i) const { return buckets_.at(i); }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

  private:
    uint64_t min_;
    uint64_t max_;
    uint64_t bucketSize_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t samples_ = 0;
    double sum_ = 0.0;
    uint64_t minSampled_ = std::numeric_limits<uint64_t>::max();
    uint64_t maxSampled_ = 0;
};

} // namespace stats
} // namespace pvsim

#endif // PVSIM_STATS_STAT_HH
