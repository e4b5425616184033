#include "util/random.hh"

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

namespace pvsim {

std::shared_ptr<const std::vector<double>>
ZipfSampler::sharedCdf(size_t n, double alpha)
{
    assert(n > 0);
    // Keyed by alpha's bits: equal parameters, equal table.
    uint64_t alpha_bits;
    std::memcpy(&alpha_bits, &alpha, sizeof(alpha));
    static std::mutex mutex;
    static std::map<std::pair<size_t, uint64_t>,
                    std::shared_ptr<const std::vector<double>>>
        tables;

    std::lock_guard<std::mutex> lock(mutex);
    auto &table = tables[{n, alpha_bits}];
    if (!table) {
        auto cdf = std::make_shared<std::vector<double>>(n);
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(double(i + 1), alpha);
            (*cdf)[i] = sum;
        }
        for (auto &c : *cdf)
            c /= sum;
        table = std::move(cdf);
    }
    return table;
}

} // namespace pvsim
