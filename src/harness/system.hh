/**
 * @file
 * System: builds and owns the full simulated machine — cores, L1s,
 * shared L2, DRAM, prefetchers, and (when configured) one
 * multi-tenant PVProxy per core serving every virtualized engine in
 * the config's registry — wired as in the paper's Figure 1b, with
 * the shared-PV-space extension of its Section 2.1.
 */

#ifndef PVSIM_HARNESS_SYSTEM_HH
#define PVSIM_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/virt_agt.hh"
#include "core/virt_btb.hh"
#include "core/virt_pht.hh"
#include "cpu/trace_core.hh"
#include "harness/system_config.hh"
#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "prefetch/sms.hh"
#include "trace/synthetic_gen.hh"
#include "trace/trace_io.hh"

namespace pvsim {

/** A fully wired simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return cfg_; }
    SimContext &ctx() { return ctx_; }

    int numCores() const { return cfg_.numCores; }
    TraceCore &core(int i) { return *cores_.at(i); }
    Cache &l1d(int i) { return *l1ds_.at(i); }
    Cache &l1i(int i) { return *l1is_.at(i); }
    Cache &l2() { return *l2_; }
    Dram &dram() { return *dram_; }

    /** SMS prefetcher of core i (nullptr when prefetch == None). */
    SmsPrefetcher *sms(int i) { return smses_.at(i).get(); }

    /** Shared PVProxy of core i (nullptr without virtualization). */
    PvProxy *pvProxy(int i) { return pvProxies_.at(i).get(); }
    /** All virtualized engines registered for core i. */
    const std::vector<std::unique_ptr<VirtEngine>> &
    engines(int i) const
    {
        return engines_.at(i);
    }
    /** Engine of core i by registry name, or nullptr. */
    VirtEngine *engine(int i, const std::string &name);
    /** Virtualized PHT of core i (nullptr unless SmsVirtualized). */
    VirtualizedPht *virtPht(int i)
    {
        return findEngine<VirtualizedPht>(i);
    }
    /** Virtualized BTB of core i (nullptr unless registered). */
    VirtualizedBtb *virtBtb(int i)
    {
        return findEngine<VirtualizedBtb>(i);
    }
    /** Dedicated-SRAM BTB of core i (nullptr unless configured). */
    DedicatedBtb *dedicatedBtb(int i)
    {
        return dedicatedBtbs_.at(i).get();
    }
    /** Virtualized AGT of core i (nullptr unless registered). */
    VirtualizedAgt *virtAgt(int i)
    {
        return findEngine<VirtualizedAgt>(i);
    }
    /** The PHT (any kind) of core i, or nullptr. */
    PatternHistoryTable *pht(int i) { return phts_.at(i); }

    /**
     * Functional execution: steps the cores round-robin until each
     * consumed refs_per_core records (or its trace ended), then
     * checks every proxy's occupancy (PvProxy::checkOccupancy).
     */
    void runFunctional(uint64_t refs_per_core);

    /**
     * Timing execution: each core runs until it consumed
     * records_per_core records; returns the tick at which the last
     * core finished (remaining in-flight work is then drained).
     * Panics unless the drained machine is quiesced() and every
     * proxy's occupancy checks out.
     */
    Tick runTiming(uint64_t records_per_core);

    /** Events executed by the system's event queue. */
    uint64_t eventsExecuted() { return ctx_.events().numExecuted(); }

    // ---- Benchmark checks -------------------------------------------
    // The benchmark job asserts through these that it measures the
    // plain event loop. Timing always runs one loop, so they are
    // constants.

    /** Timing shards in use: always 1. */
    unsigned timingShardsEffective() const { return 1; }

    /** Whether timing runs sharded: never. */
    bool shardedTiming() const { return false; }

    /** Reset all statistics (end of warmup). */
    void resetStats();

    /** Sum of instructions retired across cores. */
    uint64_t totalInstructions() const;

    /** True when caches and proxies have nothing in flight and no
     *  retry is parked. */
    bool quiesced() const;

  private:
    /** PvProxy::checkOccupancy on every core's proxy. */
    void checkOccupancy() const;

    /** First engine of core i of concrete type T, or nullptr. */
    template <class T>
    T *
    findEngine(int i)
    {
        for (auto &e : engines_.at(i)) {
            if (auto *t = dynamic_cast<T *>(e.get()))
                return t;
        }
        return nullptr;
    }

    SystemConfig cfg_;
    SimContext ctx_;
    AddrMap addrMap_;

    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> l2_;
    std::vector<std::unique_ptr<Cache>> l1ds_;
    std::vector<std::unique_ptr<Cache>> l1is_;
    std::vector<std::unique_ptr<TraceSource>> workloads_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
    /** One per core; null entries when btb.mode != Dedicated. */
    std::vector<std::unique_ptr<DedicatedBtb>> dedicatedBtbs_;
    std::vector<std::unique_ptr<NextLinePrefetcher>> nextLines_;
    std::vector<std::unique_ptr<SmsPrefetcher>> smses_;
    /** One multi-tenant proxy per core (null without virtualization). */
    std::vector<std::unique_ptr<PvProxy>> pvProxies_;
    /** Per-core engine registry instances, in registration order. */
    std::vector<std::vector<std::unique_ptr<VirtEngine>>> engines_;
    std::vector<std::unique_ptr<PatternHistoryTable>> ownedPhts_;
    std::vector<PatternHistoryTable *> phts_;
};

} // namespace pvsim

#endif // PVSIM_HARNESS_SYSTEM_HH
