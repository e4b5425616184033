/**
 * @file
 * Program-structure model: the control-flow layer of the synthetic
 * workload generator. The flat generator interleaves independent
 * data streams per record, so taken-branch successor edges at record
 * boundaries are near-random and no BTB can learn them; this model
 * replaces the pc/gap of each record with a walk over a synthetic
 * control-flow graph whose edges are *learnable* — which is what
 * turns BTB virtualization experiments (Figure 9-style) from flat
 * into paper-shaped.
 *
 * The CFG is derived deterministically from the workload seed:
 * routines of contiguous basic blocks, each block a short run of
 * memory records with fixed intra-block gaps (so consecutive records
 * are genuine fall-throughs), ended by one terminator:
 *
 *  - Cond: taken jump to a canonical forward target with probability
 *    `edgeStability`, else to a fixed alternate target (instability
 *    is bimodal, like data patterns, not noise);
 *  - Loop: back-edge to an earlier block, taken `trips` times per
 *    activation, then a fall-through exit;
 *  - Call: push the fall-through block on a bounded call stack and
 *    enter the callee's first block (canonical callee with
 *    probability `edgeStability`, alternate otherwise); at depth
 *    `callDepth` the call is elided (falls through);
 *  - Ret (last block of every routine): pop the stack and jump to
 *    the per-callsite return pc; an empty stack dispatches to the
 *    routine's canonical successor instead (annotated Cond).
 *
 * The model is composed *on top of* the data-side streams: it owns a
 * private Rng and only overwrites pc/gap/edge, so the (addr, op)
 * stream — and every draw of the data-side Rng — is identical with
 * the model on or off.
 */

#ifndef PVSIM_TRACE_PROGRAM_STRUCTURE_HH
#define PVSIM_TRACE_PROGRAM_STRUCTURE_HH

#include <cstdint>
#include <vector>

#include "trace/trace_record.hh"
#include "util/random.hh"

namespace pvsim {

struct WorkloadParams;

/** Deterministic control-flow walker for one core's stream. */
class ProgramStructureModel
{
  public:
    /** Instruction size the fall-through arithmetic assumes; must
     *  match CoreParams::instBytes (both default to 4). */
    static constexpr Addr kInstBytes = 4;

    /**
     * @param params    Workload description (branch-structure knobs).
     * @param core_id   Decorrelates the walk Rng across cores.
     * @param code_base Base of this core's code window; all pcs are
     *                  laid out contiguously from here.
     */
    ProgramStructureModel(const WorkloadParams &params, int core_id,
                          Addr code_base);

    /** Restart the walk (same seed: identical replay). */
    void reset();

    /**
     * Overwrite rec.pc / rec.gap / rec.edge with the next step of
     * the control-flow walk. The data-side fields (addr, op) are
     * left untouched.
     */
    void annotate(TraceRecord &rec);

    // ---- Introspection (tests / analysis) --------------------------

    /** Block terminator kinds (mirrors the file header). */
    enum class Term : uint8_t { Seq, Cond, Loop, Call, Ret };

    unsigned numRoutines() const { return unsigned(routines_.size()); }
    unsigned blocksPerRoutine() const;

    /** Terminator kind of block b of routine r. */
    Term termOf(unsigned r, unsigned b) const;

    /** Back-edges taken per activation of loop block (r, b). */
    unsigned loopTripsOf(unsigned r, unsigned b) const;

    /** Branch pc of block (r, b): its last memory record's pc (the
     *  key the core's reconstruction trains the BTB with). */
    Addr branchPcOf(unsigned r, unsigned b) const;

    /** Total bytes of synthetic code the CFG occupies. */
    uint64_t codeBytes() const { return codeBytes_; }

  private:
    struct Block {
        Addr start = 0;
        /** Per-record gaps; record i sits at
         *  start + sum_{j<i} (gaps[j]+1)*kInstBytes. */
        std::vector<uint8_t> gaps;
        Term term = Term::Seq;
        /** Cond/Loop: target block in this routine; Call: callee
         *  routine. */
        unsigned target = 0;
        /** Cond/Call: the unstable alternate target. */
        unsigned altTarget = 0;
        /** Loop: back-edges taken per activation. */
        unsigned trips = 0;
        /** Byte length (fall-through lands at start + bytes). */
        Addr bytes = 0;
    };

    struct Routine {
        std::vector<Block> blocks;
        /** Dispatcher successor when returning on an empty stack. */
        unsigned nextRoutine = 0;
    };

    /** A callsite's continuation: return into (routine, block). */
    struct Frame {
        unsigned routine;
        unsigned block;
    };

    const Block &curBlock() const
    {
        return routines_[routine_].blocks[block_];
    }

    /** Consume the current block's terminator: pick the successor
     *  (routine_, block_) and the edge annotating its first record. */
    void takeTerminator();

    uint64_t walkSeed_ = 0;
    Rng rng_;
    std::vector<Routine> routines_;
    /** Per-(routine, block) remaining back-edges this activation. */
    std::vector<unsigned> loopRemaining_;
    std::vector<Frame> stack_;
    unsigned callDepth_;
    double edgeStability_;
    uint64_t codeBytes_ = 0;

    unsigned routine_ = 0;
    unsigned block_ = 0;
    size_t idx_ = 0;  ///< next record within the current block
    Addr nextPc_ = 0; ///< pc of that record (runs down the block)
    BranchEdge pendingEdge_ = BranchEdge::Seq;
};

} // namespace pvsim

#endif // PVSIM_TRACE_PROGRAM_STRUCTURE_HH
