/**
 * @file
 * Spatial Memory Streaming prefetcher (Somogyi et al., ISCA 2006;
 * paper Section 3). Observes one core's L1D demand stream, builds
 * spatial patterns in the AGT, learns them in a PHT, and on each
 * triggering access streams the predicted blocks of the region into
 * the L1.
 *
 * The PHT is supplied by the caller: a dedicated table
 * (SetAssocPht/InfinitePht) gives the original SMS; a VirtualizedPht
 * (src/core) gives the paper's PV design. The SMS engine itself is
 * identical in both cases — exactly the property PV relies on
 * ("the optimization engine remains unchanged", Section 2).
 */

#ifndef PVSIM_PREFETCH_SMS_HH
#define PVSIM_PREFETCH_SMS_HH

#include <string>

#include "mem/cache.hh"
#include "prefetch/agt.hh"
#include "prefetch/pht.hh"
#include "prefetch/region.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"

namespace pvsim {

/** SMS configuration (paper Section 4.1 tuned values). */
struct SmsParams {
    std::string name = "sms";
    AgtParams agt;
    unsigned blocksPerRegion = 32;
    /**
     * Cap on prefetches issued per trigger (resource throttle; 32
     * allows the full region, as the paper's streaming engine does
     * "as fast as available bandwidth and resources allow").
     */
    unsigned maxPrefetchesPerTrigger = 32;
};

/** The SMS optimization engine. */
class SmsPrefetcher : public SimObject,
                      public CacheListener,
                      public PhtListener
{
  public:
    /**
     * @param target The L1D this prefetcher observes and fills.
     * @param pht    Pattern history table (dedicated or virtualized);
     *               not owned. Its lookups answer to this prefetcher.
     */
    SmsPrefetcher(SimContext &ctx, const SmsParams &params,
                  Cache *target, PatternHistoryTable *pht);

    // CacheListener (wired to the target L1D)
    void onAccess(Addr pc, Addr addr, bool is_write,
                  bool hit) override;
    void onEvict(Addr block_addr) override;
    void onInvalidate(Addr block_addr) override;

    /** PHT lookup answer: stream the predicted blocks of the
     *  trigger's region. */
    void phtAnswer(const PhtTrigger &trigger, bool found,
                   SpatialPattern pattern) override;

    /** Flush in-flight generations into the PHT (end of a run). */
    void flush() { agt_.flush(); }

    const ActiveGenerationTable &agt() const { return agt_; }
    PatternHistoryTable *pht() { return pht_; }
    const RegionGeometry &geometry() const { return geom_; }

    /** AGT storage in bits (the paper: "less than one kilobyte"). */
    uint64_t agtStorageBits() const { return agt_.storageBits(); }

    stats::Scalar triggers;
    stats::Scalar phtHits;
    stats::Scalar phtMisses;
    stats::Scalar generationsStored;
    stats::Scalar prefetchCandidates;
    stats::Scalar prefetchesIssued;

  private:
    SmsParams params_;
    RegionGeometry geom_;
    Cache *target_;
    PatternHistoryTable *pht_;
    ActiveGenerationTable agt_;
};

/**
 * Next-line instruction prefetcher (paper Table 1: "each core
 * implements a next-line instruction prefetcher"): on every demand
 * miss to block B, prefetch B+1.
 */
class NextLinePrefetcher : public SimObject, public CacheListener
{
  public:
    NextLinePrefetcher(SimContext &ctx, const std::string &name,
                       Cache *target);

    void onAccess(Addr pc, Addr addr, bool is_write,
                  bool hit) override;
    void onEvict(Addr) override {}
    void onInvalidate(Addr) override {}

    stats::Scalar prefetchesIssued;

  private:
    Cache *target_;
};

} // namespace pvsim

#endif // PVSIM_PREFETCH_SMS_HH
