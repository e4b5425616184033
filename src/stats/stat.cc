#include "stats/stat.hh"

#include <iomanip>

#include "stats/group.hh"
#include "util/logging.hh"

namespace pvsim {
namespace stats {

Stat::Stat(Group *parent, const std::string &name,
           const std::string &desc)
    : name_(name), desc_(desc)
{
    pv_assert(parent != nullptr, "stat '%s' needs a parent group",
              name.c_str());
    parent->addStat(this);
}

namespace {

void
emit(std::ostream &os, const std::string &prefix,
     const std::string &name, double value, const std::string &desc)
{
    std::string full = prefix + name;
    os << std::left << std::setw(44) << full << " "
       << std::right << std::setw(14) << value;
    if (!desc.empty())
        os << "  # " << desc;
    os << "\n";
}

} // anonymous namespace

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    emit(os, prefix, name(), double(value_), desc());
}

void
Average::dump(std::ostream &os, const std::string &prefix) const
{
    emit(os, prefix, name(), mean(), desc());
    emit(os, prefix, name() + "::samples", double(count_), "");
}

Distribution::Distribution(Group *parent, const std::string &name,
                           const std::string &desc, uint64_t min,
                           uint64_t max, uint64_t bucket_size)
    : Stat(parent, name, desc), min_(min), max_(max),
      bucketSize_(bucket_size)
{
    pv_assert(max_ > min_, "distribution '%s' needs max > min",
              name.c_str());
    pv_assert(bucketSize_ > 0, "distribution '%s' needs bucket > 0",
              name.c_str());
    buckets_.assign(size_t((max_ - min_ + bucketSize_ - 1) /
                           bucketSize_),
                    0);
}

void
Distribution::sample(uint64_t v)
{
    ++samples_;
    sum_ += double(v);
    minSampled_ = std::min(minSampled_, v);
    maxSampled_ = std::max(maxSampled_, v);
    if (v < min_) {
        ++underflow_;
    } else if (v >= max_) {
        ++overflow_;
    } else {
        ++buckets_[size_t((v - min_) / bucketSize_)];
    }
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    emit(os, prefix, name() + "::samples", double(samples_), desc());
    emit(os, prefix, name() + "::mean", mean(), "");
    if (samples_ > 0) {
        emit(os, prefix, name() + "::min", double(minSampled_), "");
        emit(os, prefix, name() + "::max", double(maxSampled_), "");
    }
    if (underflow_)
        emit(os, prefix, name() + "::underflow", double(underflow_), "");
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        uint64_t lo = min_ + i * bucketSize_;
        emit(os, prefix,
             name() + "::" + std::to_string(lo) + "-" +
                 std::to_string(lo + bucketSize_ - 1),
             double(buckets_[i]), "");
    }
    if (overflow_)
        emit(os, prefix, name() + "::overflow", double(overflow_), "");
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = overflow_ = samples_ = 0;
    sum_ = 0.0;
    minSampled_ = std::numeric_limits<uint64_t>::max();
    maxSampled_ = 0;
}

Callback::Callback(Group *parent, const std::string &name,
                   const std::string &desc, std::function<double()> fn)
    : Stat(parent, name, desc), fn_(std::move(fn))
{
}

void
Callback::dump(std::ostream &os, const std::string &prefix) const
{
    emit(os, prefix, name(), fn_(), desc());
}

} // namespace stats
} // namespace pvsim
