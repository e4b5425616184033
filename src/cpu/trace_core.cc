#include "cpu/trace_core.hh"

#include "core/virt_agt.hh"
#include "core/virt_stride.hh"
#include "mem/packet_pool.hh"
#include "util/intmath.hh"
#include "util/logging.hh"

namespace pvsim {

TraceCore::TraceCore(SimContext &ctx, const CoreParams &params,
                     TraceSource *source, Cache *l1d, Cache *l1i)
    : SimObject(ctx, nullptr, params.name),
      records(this, "records", "trace records consumed"),
      instsRetired(this, "insts_retired", "instructions retired"),
      loadStallCycles(this, "load_stall_cycles",
                      "cycles stalled on load misses"),
      fetchStallCycles(this, "fetch_stall_cycles",
                       "cycles stalled on instruction fetch"),
      storeStallCycles(this, "store_stall_cycles",
                       "cycles stalled on a full store buffer"),
      mispredictStallCycles(this, "mispredict_stall_cycles",
                            "cycles stalled on fetch redirects "
                            "after BTB mispredicts"),
      fetchRedirects(this, "fetch_redirects",
                     "fetch-redirect events after BTB mispredicts"),
      loads(this, "loads", "load instructions"),
      stores(this, "stores", "store instructions"),
      takenBranches(this, "taken_branches",
                    "taken branches reconstructed from the trace"),
      callBranches(this, "call_branches",
                   "taken branches annotated as calls"),
      returnBranches(this, "return_branches",
                     "taken branches annotated as returns"),
      loopBranches(this, "loop_branches",
                   "taken branches annotated as loop back-edges"),
      btbHits(this, "btb_hits",
              "taken branches whose target the BTB predicted"),
      btbMispredicts(this, "btb_mispredicts",
                     "taken branches the BTB missed or mistargeted"),
      btbUnavailable(this, "btb_unavailable",
                     "taken-branch lookups unanswered at fetch time "
                     "(prediction still waiting on its PV fill)"),
      stridePredicts(this, "stride_predicts",
                     "confident stride-table predictions"),
      strideHits(this, "stride_hits",
                 "stride predictions matching the accessed block"),
      params_(params), source_(source), l1d_(l1d), l1i_(l1i)
{
    pv_assert(source_ && l1d_ && l1i_, "core needs source and caches");
}

void
TraceCore::noteRecordBoundary()
{
    // How was this record reached? Annotated streams (the
    // program-structure generator, annotated trace files) say so
    // explicitly — a real successor edge, not a reconstruction.
    // Unannotated streams fall back to the historical boundary
    // heuristic: a record starting off the previous record's
    // fall-through path was reached by a taken branch. Either way
    // the branch is keyed by the previous record's (stable)
    // memory-instruction pc — not the gap-dependent
    // last-instruction address — and its target is this record's
    // pc.
    const bool taken = rec_.edge == BranchEdge::None
                           ? rec_.pc != prevFallthrough_
                           : isTakenEdge(rec_.edge);
    if (prevRecordValid_ && taken) {
        ++takenBranches;
        switch (rec_.edge) {
          case BranchEdge::Call: ++callBranches; break;
          case BranchEdge::Ret: ++returnBranches; break;
          case BranchEdge::Loop: ++loopBranches; break;
          default: break;
        }
        if (btb_ && rec_.pc != 0) {
            Addr target = rec_.pc;
            // Members, not locals: a virtualized BTB may hold the
            // callback until its PV line fills, long after this
            // frame returns. The hit/mispredict stats score the
            // eventual answer; the redirect decision below only
            // trusts an answer available *now* (at fetch).
            lookupResolved_ = false;
            lookupCorrect_ = false;
            btb_->lookup(prevPc_,
                         [this, target](bool found, Addr predicted) {
                lookupResolved_ = true;
                lookupCorrect_ = found && predicted == target;
                if (lookupCorrect_)
                    ++btbHits;
                else
                    ++btbMispredicts;
            });
            if (!lookupResolved_)
                ++btbUnavailable;
            if (isTiming() && params_.btbMispredictPenalty > 0 &&
                !(lookupResolved_ && lookupCorrect_)) {
                pendingRedirect_ = true;
            }
            btb_->update(prevPc_, target);
        }
    }
    prevRecordValid_ = true;
    prevPc_ = rec_.pc;
    prevFallthrough_ =
        rec_.pc + (Addr(rec_.gap) + 1) * params_.instBytes;

    if (stride_) {
        // Predict before training so the prediction reflects what
        // the engine knew prior to this access.
        Addr actual = blockAlign(rec_.addr);
        stride_->predict(rec_.pc,
                         [this, actual](bool confident, Addr next) {
            if (!confident)
                return;
            ++stridePredicts;
            if (next == actual)
                ++strideHits;
        });
        stride_->observe(rec_.pc, rec_.addr);
    }

    if (agt_)
        agt_->observe(rec_.pc, rec_.addr);
}

// -----------------------------------------------------------------------
// Functional mode
// -----------------------------------------------------------------------

void
TraceCore::processRecordFunctional()
{
    ++records;
    noteRecordBoundary();
    instsRetired += uint64_t(rec_.gap) + 1;

    // Instruction fetch: blocks covering [pc, pc + (gap+1)*instBytes).
    Addr start = rec_.pc;
    uint64_t bytes = (uint64_t(rec_.gap) + 1) * params_.instBytes;
    for (Addr b = blockAlign(start); b < start + bytes;
         b += kBlockBytes) {
        if (b == lastFetchBlock_)
            continue;
        lastFetchBlock_ = b;
        Packet fp(MemCmd::ReadReq, b, params_.id);
        fp.pc = rec_.pc;
        fp.isInstFetch = true;
        l1i_->functionalAccess(fp);
    }

    // Data access.
    Packet mp(rec_.isLoad() ? MemCmd::ReadReq : MemCmd::WriteReq,
              rec_.addr, params_.id);
    mp.pc = rec_.pc;
    l1d_->functionalAccess(mp);
    if (rec_.isLoad())
        ++loads;
    else
        ++stores;
}

bool
TraceCore::stepFunctional()
{
    if (!source_->next(rec_))
        return false;
    processRecordFunctional();
    return true;
}

uint64_t
TraceCore::stepFunctionalBatch(uint64_t max_records)
{
    if (batch_.empty())
        batch_.resize(kBatchRecords);
    uint64_t consumed = 0;
    while (consumed < max_records) {
        size_t want = size_t(
            std::min<uint64_t>(kBatchRecords, max_records - consumed));
        size_t got = source_->nextBatch(batch_.data(), want);
        for (size_t i = 0; i < got; ++i) {
            rec_ = batch_[i];
            processRecordFunctional();
        }
        consumed += got;
        if (got < want)
            break; // end of trace
    }
    return consumed;
}

// -----------------------------------------------------------------------
// Timing mode
// -----------------------------------------------------------------------

void
TraceCore::start(uint64_t max_records)
{
    pv_assert(isTiming(), "start() is for timing mode");
    maxRecords_ = max_records;
    done_ = false;
    phase_ = Phase::NeedRecord;
    // A new phase (warmup -> measure) starts with clean branch
    // reconstruction: the previous phase's last record must not
    // score a phantom edge — or charge a redirect — against this
    // phase's first record. Fetch-suppression state
    // (lastFetchBlock_) is physical and deliberately survives.
    prevRecordValid_ = false;
    prevPc_ = 0;
    prevFallthrough_ = 0;
    pendingRedirect_ = false;
    schedule(0, [this] { advance(); }, EventQueue::kPrioCpu);
}

bool
TraceCore::refill()
{
    if (maxRecords_ && records.value() >= maxRecords_)
        return false;
    if (!source_->next(rec_))
        return false;
    ++records;
    noteRecordBoundary();

    fetchQueue_.clear();
    fetchPos_ = 0;
    Addr start = rec_.pc;
    uint64_t bytes = (uint64_t(rec_.gap) + 1) * params_.instBytes;
    for (Addr b = blockAlign(start); b < start + bytes;
         b += kBlockBytes) {
        if (b != lastFetchBlock_)
            fetchQueue_.push_back(b);
    }
    if (!fetchQueue_.empty())
        lastFetchBlock_ = fetchQueue_.back();
    return true;
}

bool
TraceCore::doFetch()
{
    while (fetchPos_ < fetchQueue_.size()) {
        Addr b = fetchQueue_[fetchPos_++];
        auto *pkt = allocPacket(MemCmd::ReadReq, b, params_.id);
        pkt->pc = rec_.pc;
        pkt->isInstFetch = true;
        pkt->src = this;
        if (l1i_->probeAccess(pkt)) {
            // Pipelined hit: free.
            freePacket(pkt);
            continue;
        }
        // Miss: stall until the fill returns.
        waitingFetch_ = true;
        stallStart_ = curTick();
        return false;
    }
    return true;
}

bool
TraceCore::doMem()
{
    if (rec_.isLoad()) {
        auto *pkt = allocPacket(MemCmd::ReadReq, rec_.addr,
                                params_.id);
        pkt->pc = rec_.pc;
        pkt->src = this;
        ++loads;
        if (l1d_->probeAccess(pkt)) {
            freePacket(pkt);
            return true;
        }
        waitingLoad_ = true;
        stallStart_ = curTick();
        return false;
    }

    // Store: non-blocking through the store buffer.
    if (storesInFlight_ >= params_.storeBufferEntries) {
        stalledOnStoreBuffer_ = true;
        stallStart_ = curTick();
        return false;
    }
    auto *pkt = allocPacket(MemCmd::WriteReq, rec_.addr, params_.id);
    pkt->pc = rec_.pc;
    pkt->src = this;
    ++stores;
    if (l1d_->probeAccess(pkt)) {
        freePacket(pkt); // store hit completes immediately
    } else {
        ++storesInFlight_;
    }
    return true;
}

void
TraceCore::advance()
{
    for (;;) {
        switch (phase_) {
          case Phase::NeedRecord:
            if (!refill()) {
                phase_ = Phase::Done;
                done_ = true;
                return;
            }
            phase_ = Phase::Fetch;
            if (pendingRedirect_) {
                // Mispredicted taken branch: the front end restarts
                // fetch at the (late) correct target. A distinct
                // fetchRedirect event — not a cache-miss stall —
                // resumes the fetch after the penalty.
                pendingRedirect_ = false;
                ++fetchRedirects;
                mispredictStallCycles +=
                    params_.btbMispredictPenalty;
                schedule(params_.btbMispredictPenalty,
                         [this] { advance(); },
                         EventQueue::kPrioCpu);
                return;
            }
            break;

          case Phase::Fetch:
            if (!doFetch())
                return; // stalled on ifetch
            phase_ = Phase::Gap;
            break;

          case Phase::Gap: {
            uint64_t insts = uint64_t(rec_.gap) + 1;
            instsRetired += insts;
            Cycles cycles =
                Cycles(divideCeil(insts, params_.width));
            phase_ = Phase::Mem;
            if (cycles > 0) {
                schedule(cycles, [this] { advance(); },
                         EventQueue::kPrioCpu);
                return;
            }
            break;
          }

          case Phase::Mem:
            if (!doMem())
                return; // stalled on load or store buffer
            phase_ = Phase::NeedRecord;
            break;

          case Phase::Done:
            return;
        }
    }
}

void
TraceCore::recvResponse(PacketPtr pkt)
{
    if (pkt->cmd == MemCmd::WriteResp) {
        // A buffered store completed.
        pv_assert(storesInFlight_ > 0, "stray store response");
        --storesInFlight_;
        freePacket(pkt);
        if (stalledOnStoreBuffer_) {
            stalledOnStoreBuffer_ = false;
            storeStallCycles += curTick() - stallStart_;
            advance(); // retry the stalled store
        }
        return;
    }

    if (pkt->isInstFetch) {
        pv_assert(waitingFetch_, "stray ifetch response");
        waitingFetch_ = false;
        fetchStallCycles += curTick() - stallStart_;
        freePacket(pkt);
        advance();
        return;
    }

    pv_assert(waitingLoad_, "stray load response");
    waitingLoad_ = false;
    loadStallCycles += curTick() - stallStart_;
    freePacket(pkt);
    advance();
}

} // namespace pvsim
