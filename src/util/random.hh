/**
 * @file
 * Deterministic pseudo-random number generation for workload
 * synthesis. All simulator randomness flows through Rng so that runs
 * are reproducible from a single seed (required for matched-pair
 * speedup measurement, paper Section 4.1).
 */

#ifndef PVSIM_UTIL_RANDOM_HH
#define PVSIM_UTIL_RANDOM_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace pvsim {

/**
 * Small, fast, deterministic generator (xoshiro256**). Seeded through
 * splitmix64 so that nearby seeds produce uncorrelated streams.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    void
    reseed(uint64_t seed)
    {
        // splitmix64 expansion of the seed into four state words.
        uint64_t x = seed;
        for (auto &word : s_) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        auto rotl = [](uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t
    below(uint64_t bound)
    {
        assert(bound > 0);
        // Bounded rejection to avoid modulo bias for large bounds.
        uint64_t threshold = (-bound) % bound;
        for (;;) {
            uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    inRange(uint64_t lo, uint64_t hi)
    {
        assert(hi >= lo);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Geometric-ish positive integer with the given mean (>= 1). */
    uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        double p = 1.0 / mean;
        uint64_t n = 1;
        // Cap the tail so a pathological draw cannot stall a run.
        while (n < uint64_t(mean * 16) && !chance(p))
            ++n;
        return n;
    }

  private:
    uint64_t s_[4];
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with exponent alpha.
 * Uses a precomputed inverse CDF (O(log n) per sample), accurate and
 * fast for the table sizes used by the workload generators. The CDF
 * depends only on (n, alpha), so it is built once per process and
 * shared, read-only, by every sampler with the same parameters
 * (samplers may be built concurrently).
 */
class ZipfSampler
{
  public:
    /**
     * @param n     Number of distinct items.
     * @param alpha Skew; 0 degenerates to uniform.
     */
    ZipfSampler(size_t n, double alpha) : cdf_(sharedCdf(n, alpha)) {}

    /** Draw one sample; item 0 is the most popular. */
    size_t
    sample(Rng &rng) const
    {
        const std::vector<double> &cdf = *cdf_;
        double u = rng.uniform();
        size_t lo = 0, hi = cdf.size() - 1;
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    size_t size() const { return cdf_->size(); }

    /** The inverse CDF (shared with equal-parameter samplers). */
    const std::vector<double> &cdf() const { return *cdf_; }

  private:
    /** The process's CDF for (n, alpha), built on first use. */
    static std::shared_ptr<const std::vector<double>>
    sharedCdf(size_t n, double alpha);

    std::shared_ptr<const std::vector<double>> cdf_;
};

} // namespace pvsim

#endif // PVSIM_UTIL_RANDOM_HH
