#include "core/pv_qos.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace pvsim {

namespace {

const char *const kResourceNames[PvQosArbiter::NumResources] = {
    "PVCache", "MSHR", "pattern-buffer"};

} // namespace

void
PvQosArbiter::setCapacities(unsigned pvcache_entries, unsigned mshrs,
                            unsigned pattern_entries)
{
    caps_ = {{pvcache_entries, mshrs, pattern_entries}};
    recompute();
}

unsigned
PvQosArbiter::addTenant(const PvTenantQos &qos)
{
    tenants_.push_back(qos);
    entitlements_.emplace_back();
    recompute();
    return numTenants() - 1;
}

void
PvQosArbiter::setTenantQos(unsigned t, const PvTenantQos &qos)
{
    tenants_.at(t) = qos;
    recompute();
}

void
PvQosArbiter::recompute()
{
    active_ = false;
    for (const auto &q : tenants_)
        active_ = active_ || !q.isDefault();

    const unsigned n = numTenants();
    if (n == 0)
        return;

    // All-zero weights would leave the post-floor remainder
    // unownable; treat that degenerate contract set as equal
    // weights (the tenants asked for floors only).
    uint64_t weight_sum = 0;
    for (const auto &q : tenants_)
        weight_sum += q.weight;
    const bool all_zero = weight_sum == 0;
    auto weight_of = [&](unsigned t) -> uint64_t {
        return all_zero ? 1 : tenants_[t].weight;
    };
    if (all_zero)
        weight_sum = n;

    for (unsigned r = 0; r < NumResources; ++r) {
        const unsigned cap = caps_[r];
        auto floor_of = [&](unsigned t) -> uint64_t {
            switch (Resource(r)) {
              case PvCache: return tenants_[t].pvCacheFloor;
              case Mshrs: return tenants_[t].mshrFloor;
              case PatternBuffer:
                return tenants_[t].patternBufferFloor;
              default: return 0;
            }
        };

        // Floors, gracefully clamped: contracts promising more than
        // the capacity are scaled down proportionally rather than
        // rejected — a sweep may legitimately push floors past a
        // small smoke-sized proxy.
        uint64_t floor_sum = 0;
        for (unsigned t = 0; t < n; ++t)
            floor_sum += floor_of(t);
        std::vector<unsigned> floors(n, 0);
        for (unsigned t = 0; t < n; ++t) {
            uint64_t f = floor_of(t);
            if (floor_sum > cap)
                f = f * cap / floor_sum; // rounds down: sum <= cap
            floors[t] = unsigned(f);
        }

        uint64_t floored = std::accumulate(floors.begin(),
                                           floors.end(), uint64_t(0));
        pv_assert(floored <= cap, "floor clamp overflowed");
        const uint64_t remainder = cap - floored;

        // Weighted share of the remainder, rounded down...
        uint64_t assigned = 0;
        for (unsigned t = 0; t < n; ++t) {
            unsigned share =
                unsigned(remainder * weight_of(t) / weight_sum);
            entitlements_[t][r] = floors[t] + share;
            assigned += floors[t] + share;
        }
        // ... then the integer leftovers handed out one at a time
        // over the eligible tenants ordered by descending weight
        // (ties by registration order), cycling until none remain,
        // so entitlements sum to exactly the capacity. Zero-weight
        // tenants never receive leftovers: best effort means their
        // floors are all they own.
        std::vector<unsigned> order;
        for (unsigned t = 0; t < n; ++t) {
            if (weight_of(t) > 0)
                order.push_back(t);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return weight_of(a) > weight_of(b);
                         });
        uint64_t leftover = cap - assigned;
        for (size_t i = 0; leftover > 0 && !order.empty(); ++i) {
            ++entitlements_[order[i % order.size()]][r];
            --leftover;
        }

        // entitlement() promises this sum: with it, every slot has
        // an owner and no tenant is promised a slot that does not
        // exist, so strict enforcement cannot deadlock the proxy.
        uint64_t entitled = 0;
        for (unsigned t = 0; t < n; ++t)
            entitled += entitlements_[t][r];
        if (entitled != cap)
            panic("PvQosArbiter: %s entitlements of %u tenant(s) sum "
                  "to %llu, not the capacity %u",
                  kResourceNames[r], n, (unsigned long long)entitled,
                  cap);
    }
}

} // namespace pvsim
