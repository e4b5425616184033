#include "prefetch/sms.hh"

#include "util/bitfield.hh"

namespace pvsim {

SmsPrefetcher::SmsPrefetcher(SimContext &ctx, const SmsParams &params,
                             Cache *target, PatternHistoryTable *pht)
    : SimObject(ctx, nullptr, params.name),
      triggers(this, "triggers", "spatial generation triggers"),
      phtHits(this, "pht_hits", "trigger lookups that found a pattern"),
      phtMisses(this, "pht_misses", "trigger lookups with no pattern"),
      generationsStored(this, "generations_stored",
                        "patterns transferred to the PHT"),
      prefetchCandidates(this, "prefetch_candidates",
                         "blocks named by predictions"),
      prefetchesIssued(this, "prefetches_issued",
                       "prefetches accepted by the L1"),
      params_(params), geom_(params.blocksPerRegion),
      target_(target), pht_(pht),
      agt_(params.agt, geom_,
           [this](PhtKey key, SpatialPattern pattern) {
               ++generationsStored;
               pht_->insert(key, pattern);
           })
{
    pv_assert(target_ != nullptr, "SMS needs a target cache");
    pv_assert(pht_ != nullptr, "SMS needs a PHT");
    pht_->setListener(this);
}

void
SmsPrefetcher::onAccess(Addr pc, Addr addr, bool /*is_write*/,
                        bool /*hit*/)
{
    bool triggered = agt_.recordAccess(pc, addr);
    if (!triggered)
        return;

    ++triggers;
    // The lookup may be answered now (dedicated PHT / PVCache hit) or
    // after a memory round trip (virtualized PHT miss); SMS does not
    // care — phtAnswer() runs whenever the pattern arrives.
    pht_->lookup(makePhtKey(pc, geom_.blockOffset(addr)),
                 PhtTrigger{pc, addr});
}

void
SmsPrefetcher::phtAnswer(const PhtTrigger &trigger, bool found,
                         SpatialPattern pattern)
{
    if (!found) {
        ++phtMisses;
        return;
    }
    ++phtHits;

    const Addr region_base = geom_.regionBase(trigger.addr);
    const unsigned trigger_offset = geom_.blockOffset(trigger.addr);

    unsigned issued = 0;
    for (unsigned off = 0;
         off < geom_.blocksPerRegion() &&
         issued < params_.maxPrefetchesPerTrigger;
         ++off) {
        if (off == trigger_offset)
            continue; // the trigger block is being demand-fetched
        if (!(pattern & (SpatialPattern(1) << off)))
            continue;
        ++prefetchCandidates;
        if (target_->issuePrefetch(geom_.blockAddr(region_base, off),
                                   trigger.pc)) {
            ++prefetchesIssued;
            ++issued;
        }
    }
}

void
SmsPrefetcher::onEvict(Addr block_addr)
{
    agt_.blockRemoved(block_addr);
}

void
SmsPrefetcher::onInvalidate(Addr block_addr)
{
    agt_.blockRemoved(block_addr);
}

NextLinePrefetcher::NextLinePrefetcher(SimContext &ctx,
                                       const std::string &name,
                                       Cache *target)
    : SimObject(ctx, nullptr, name),
      prefetchesIssued(this, "prefetches_issued",
                       "next-line prefetches accepted"),
      target_(target)
{
    pv_assert(target_ != nullptr, "prefetcher needs a target cache");
}

void
NextLinePrefetcher::onAccess(Addr /*pc*/, Addr addr, bool /*is_write*/,
                             bool hit)
{
    if (hit)
        return;
    Addr next = blockAlign(addr) + kBlockBytes;
    if (target_->issuePrefetch(next, 0))
        ++prefetchesIssued;
}

} // namespace pvsim
