/**
 * @file
 * Trace-driven in-order core. Consumes TraceRecords, synthesizes the
 * instruction-fetch stream from (pc, gap), retires `width`
 * instructions per cycle, stalls on L1D load misses (stall-on-use),
 * and issues stores through a non-blocking store buffer. L1 hits are
 * pipelined (no stall); timing cost comes from misses — and, when a
 * BTB is attached with btbMispredictPenalty > 0, from front-end
 * redirects after mispredicted taken branches.
 *
 * When a BtbPredictor is attached (a DedicatedBtb, or a
 * VirtualizedBtb driving the shared PVProxy — the paper's Section 6
 * "other existing predictors" path), the core reconstructs taken
 * branches from record boundaries (a record whose pc is not the
 * previous record's fall-through was reached by a taken branch) and
 * predicts/trains through it. In timing mode a mispredict — the
 * predictor wrong, or unable to answer by fetch time, as a
 * virtualized BTB waiting on a PV fill is — charges a fetchRedirect
 * stall of btbMispredictPenalty cycles through the event queue,
 * tracked separately from load/fetch/store stalls.
 */

#ifndef PVSIM_CPU_TRACE_CORE_HH
#define PVSIM_CPU_TRACE_CORE_HH

#include <string>
#include <vector>

#include "cpu/btb.hh"
#include "mem/cache.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"
#include "trace/trace_record.hh"

namespace pvsim {

class VirtualizedAgt;
class VirtualizedStride;

/** Core configuration (paper Table 1, simplified to in-order). */
struct CoreParams {
    std::string name = "core";
    int id = 0;
    /** Instructions retired per cycle when not stalled. */
    unsigned width = 4;
    /** Store buffer entries (stores in flight without stalling). */
    unsigned storeBufferEntries = 8;
    /** Bytes per instruction for the synthetic fetch stream. */
    unsigned instBytes = 4;
    /**
     * Front-end stall per mispredicted taken branch (timing mode,
     * needs an attached BTB). 0 keeps the historical free-branch
     * timing bit-for-bit.
     */
    Cycles btbMispredictPenalty = 0;
};

/** The core. */
class TraceCore final : public SimObject, public MemClient
{
  public:
    /** Records pulled from the source per batched stepping chunk. */
    static constexpr size_t kBatchRecords = 256;

    TraceCore(SimContext &ctx, const CoreParams &params,
              TraceSource *source, Cache *l1d, Cache *l1i);

    /**
     * Attach a BTB (dedicated or virtualized): every taken branch
     * reconstructed from the trace is predicted and trained
     * through it.
     */
    void setBtb(BtbPredictor *btb) { btb_ = btb; }

    /**
     * Attach a virtualized stride table: every data access is
     * predicted and trained through it (prediction quality is
     * tracked in stridePredicts/strideHits).
     */
    void setStride(VirtualizedStride *stride) { stride_ = stride; }

    /**
     * Attach a virtualized AGT: every data access is observed
     * through it (read-modify-write PV traffic; the accumulated
     * generations feed its sink, when one is set).
     */
    void setAgt(VirtualizedAgt *agt) { agt_ = agt; }

    // ---- Functional mode -------------------------------------------

    /**
     * Consume one trace record with zero-latency memory accesses
     * (instruction fetch included). Returns false at end-of-trace.
     */
    bool stepFunctional();

    /**
     * Consume up to max_records records in kBatchRecords-sized
     * chunks pulled through TraceSource::nextBatch — one virtual
     * call per chunk instead of one per record, with the identical
     * per-record state transitions and statistics as
     * stepFunctional(). Returns the number of records consumed
     * (less than max_records only at end-of-trace).
     */
    uint64_t stepFunctionalBatch(uint64_t max_records);

    // ---- Timing mode --------------------------------------------------

    /**
     * Begin execution: schedules the first advance. The core runs
     * until the trace ends or the record budget is exhausted.
     */
    void start(uint64_t max_records);

    /** True once the record budget / trace is exhausted. */
    bool done() const { return done_; }

    // MemClient
    void recvResponse(PacketPtr pkt) override;
    std::string clientName() const override { return name(); }

    // ---- Measurement -----------------------------------------------------

    uint64_t instructionsRetired() const
    {
        return instsRetired.value();
    }
    uint64_t recordsConsumed() const { return records.value(); }

    /** Fraction of taken branches whose target the BTB predicted
     *  (0 when no taken branch was scored yet). */
    double
    btbHitRate() const
    {
        uint64_t scored = btbHits.value() + btbMispredicts.value();
        return scored ? double(btbHits.value()) / double(scored)
                      : 0.0;
    }

    /** Aggregate IPC since the last stats reset (timing mode). */
    double
    ipc(Tick elapsed) const
    {
        return elapsed ? double(instsRetired.value()) /
                             double(elapsed)
                       : 0.0;
    }

    stats::Scalar records;
    stats::Scalar instsRetired;
    stats::Scalar loadStallCycles;
    stats::Scalar fetchStallCycles;
    stats::Scalar storeStallCycles;
    stats::Scalar mispredictStallCycles;
    stats::Scalar fetchRedirects; ///< redirect events scheduled
    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar takenBranches;   ///< record boundaries not fall-through
    stats::Scalar callBranches;    ///< ... of which annotated calls
    stats::Scalar returnBranches;  ///< ... of which annotated returns
    stats::Scalar loopBranches;    ///< ... of which loop back-edges
    stats::Scalar btbHits;         ///< BTB predicted the right target
    stats::Scalar btbMispredicts;  ///< BTB missed or predicted wrong
    /** Lookups unanswered at fetch time (a virtualized BTB waiting
     *  on its PV fill). Each one charges a redirect in timing mode
     *  whatever the late answer turns out to be — these are the
     *  availability redirects per-tenant QoS exists to protect. A
     *  dedicated BTB answers synchronously, so its count is zero. */
    stats::Scalar btbUnavailable;
    stats::Scalar stridePredicts;  ///< confident stride predictions
    stats::Scalar strideHits;      ///< ... matching the actual block

  private:
    /** Drive the state machine as far as it can go this tick. */
    void advance();

    /** Functional-mode work for the record in rec_ (shared by the
     *  scalar and batched stepping paths). */
    void processRecordFunctional();

    /**
     * Reconstruct the branch (if any) that led to the just-loaded
     * record and drive the attached BTB and stride engines; updates
     * the fall-through tracking state either way.
     */
    void noteRecordBoundary();

    /** Issue the instruction-fetch for the current record; true if
     *  fetch completed without a stall. */
    bool doFetch();

    /** Issue the data access; true if it completed synchronously. */
    bool doMem();

    /** Load the next record; false at end of trace/budget. */
    bool refill();

    enum class Phase { NeedRecord, Fetch, Gap, Mem, Done };

    CoreParams params_;
    TraceSource *source_;
    Cache *l1d_;
    Cache *l1i_;
    BtbPredictor *btb_ = nullptr;
    VirtualizedStride *stride_ = nullptr;
    VirtualizedAgt *agt_ = nullptr;

    /** Branch reconstruction state (see noteRecordBoundary).
     *  Cleared by start(): a measurement phase must not score or
     *  charge a phantom branch edge against the previous phase's
     *  last record. */
    bool prevRecordValid_ = false;
    Addr prevPc_ = 0;          ///< previous record's pc (branch key)
    Addr prevFallthrough_ = 0; ///< pc the next record "should" have

    /**
     * Redirect bookkeeping for the mispredict penalty: the lookup
     * callback sets lookupResolved_/lookupCorrect_; a callback
     * still unresolved when noteRecordBoundary returns (a
     * virtualized BTB waiting on its PV fill) counts as a
     * mispredict for timing, whatever it eventually reports.
     */
    bool lookupResolved_ = false;
    bool lookupCorrect_ = false;
    bool pendingRedirect_ = false;

    TraceRecord rec_;
    Phase phase_ = Phase::NeedRecord;
    uint64_t maxRecords_ = 0;
    bool done_ = false;

    /** Last instruction block fetched (suppresses repeat fetches). */
    Addr lastFetchBlock_ = ~Addr(0);
    /**
     * Instruction blocks to fetch for this record, drained strictly
     * FIFO by fetchPos_. A reused vector plus cursor: refilling
     * never reallocates once warm (the record's block count is
     * bounded by gap), unlike the deque this replaces.
     */
    std::vector<Addr> fetchQueue_;
    size_t fetchPos_ = 0;
    /** Chunk buffer for stepFunctionalBatch. */
    std::vector<TraceRecord> batch_;
    bool waitingFetch_ = false;
    bool waitingLoad_ = false;
    Tick stallStart_ = 0;

    unsigned storesInFlight_ = 0;
    bool stalledOnStoreBuffer_ = false;
};

} // namespace pvsim

#endif // PVSIM_CPU_TRACE_CORE_HH
