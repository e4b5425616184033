#include "trace/program_structure.hh"

#include <algorithm>

#include "trace/workload.hh"
#include "util/logging.hh"

namespace pvsim {

const char *
branchEdgeName(BranchEdge e)
{
    switch (e) {
      case BranchEdge::None: return "none";
      case BranchEdge::Seq: return "seq";
      case BranchEdge::Cond: return "cond";
      case BranchEdge::Loop: return "loop";
      case BranchEdge::Call: return "call";
      case BranchEdge::Ret: return "ret";
    }
    return "unknown";
}

namespace {

/** Same mixer as the data-side generator (derived randomness). */
uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Map a mixed word to [0, 1). */
double
unit(uint64_t h)
{
    return double(h >> 11) * (1.0 / 9007199254740992.0);
}

} // anonymous namespace

ProgramStructureModel::ProgramStructureModel(
    const WorkloadParams &params, int core_id, Addr code_base)
    : walkSeed_(mix(params.seed, uint64_t(core_id) + 0xCF60)),
      rng_(walkSeed_), callDepth_(params.branch.callDepth),
      edgeStability_(params.branch.edgeStability)
{
    const unsigned R = std::max(2u, params.branch.numRoutines);
    const unsigned B = std::max(2u, params.branch.routineBlocks);
    const unsigned mean_recs = std::max(1u, params.branch.bbMeanRecords);
    const unsigned trip_mean = std::max(1u, params.branch.loopTripMean);

    // The whole CFG is derived from the seed alone — the walk Rng
    // never participates, so the graph (pcs, edges, trip counts) is
    // identical across reset() and across warmup/measure phases.
    const uint64_t gseed = mix(params.seed, 0x9A0C0DE);

    routines_.resize(R);
    loopRemaining_.assign(size_t(R) * B, 0);
    Addr pc = code_base;
    for (unsigned r = 0; r < R; ++r) {
        Routine &rt = routines_[r];
        rt.blocks.resize(B);
        // Canonical dispatcher chain: never self, spread over all
        // routines so an idle stack still walks the whole CFG.
        rt.nextRoutine =
            (r + 1 + unsigned(mix(gseed, r * 31 + 7) % (R - 1))) % R;
        for (unsigned b = 0; b < B; ++b) {
            Block &blk = rt.blocks[b];
            const uint64_t bs = mix(gseed, uint64_t(r) * B + b);
            blk.start = pc;
            unsigned nrecs =
                1 + unsigned(bs % (2 * mean_recs - 1));
            blk.gaps.resize(nrecs);
            Addr bytes = 0;
            for (unsigned i = 0; i < nrecs; ++i) {
                // Gaps 1..8, fixed per (routine, block, record):
                // intra-block fall-throughs hold across visits.
                blk.gaps[i] =
                    uint8_t(1 + (mix(bs, i + 1) & 0x7));
                bytes += (Addr(blk.gaps[i]) + 1) * kInstBytes;
            }
            blk.bytes = bytes;
            pc += bytes;

            // Terminator. The last block always returns; forward
            // Cond targets plus trip-bounded back-edges guarantee
            // every activation reaches it.
            const double draw = unit(mix(bs, 0xED6E));
            if (b == B - 1) {
                blk.term = Term::Ret;
            } else if (draw < params.branch.callFraction) {
                blk.term = Term::Call;
                blk.target =
                    (r + 1 + unsigned(mix(bs, 0xCA11) % (R - 1))) %
                    R;
                blk.altTarget =
                    (r + 1 + unsigned(mix(bs, 0xCA12) % (R - 1))) %
                    R;
            } else if (draw < params.branch.callFraction +
                                  params.branch.loopFraction &&
                       b >= 1) {
                blk.term = Term::Loop;
                blk.target = unsigned(mix(bs, 0x100B) % b);
                blk.trips =
                    1 + unsigned(mix(bs, 0x7219) %
                                 (2 * trip_mean - 1));
            } else if (b + 2 < B) {
                blk.term = Term::Cond;
                // Forward skip targets in (b+1, B-1].
                unsigned span = B - 1 - (b + 1);
                blk.target =
                    b + 2 + unsigned(mix(bs, 0xC0ED) % span);
                blk.altTarget =
                    b + 2 + unsigned(mix(bs, 0xC0EE) % span);
            } else {
                blk.term = Term::Seq; // no forward target left
            }
        }
        // Routines are block-aligned so distinct routines never
        // share an instruction-fetch block at their seam.
        pc = (pc + kBlockBytes - 1) & ~Addr(kBlockBytes - 1);
    }
    codeBytes_ = pc - code_base;
    reset();
}

unsigned
ProgramStructureModel::blocksPerRoutine() const
{
    return unsigned(routines_.front().blocks.size());
}

ProgramStructureModel::Term
ProgramStructureModel::termOf(unsigned r, unsigned b) const
{
    return routines_.at(r).blocks.at(b).term;
}

unsigned
ProgramStructureModel::loopTripsOf(unsigned r, unsigned b) const
{
    return routines_.at(r).blocks.at(b).trips;
}

Addr
ProgramStructureModel::branchPcOf(unsigned r, unsigned b) const
{
    const Block &blk = routines_.at(r).blocks.at(b);
    return blk.start + blk.bytes -
           (Addr(blk.gaps.back()) + 1) * kInstBytes;
}

void
ProgramStructureModel::reset()
{
    rng_.reseed(walkSeed_);
    const unsigned B = blocksPerRoutine();
    for (unsigned r = 0; r < routines_.size(); ++r) {
        for (unsigned b = 0; b < B; ++b) {
            loopRemaining_[size_t(r) * B + b] =
                routines_[r].blocks[b].trips;
        }
    }
    stack_.clear();
    routine_ = 0;
    block_ = 0;
    idx_ = 0;
    nextPc_ = routines_[0].blocks[0].start;
    pendingEdge_ = BranchEdge::Seq;
}

void
ProgramStructureModel::takeTerminator()
{
    const Block &blk = curBlock();
    const unsigned B = unsigned(routines_[routine_].blocks.size());
    switch (blk.term) {
      case Term::Seq:
        block_ += 1;
        pendingEdge_ = BranchEdge::Seq;
        break;
      case Term::Cond: {
        bool canonical = rng_.chance(edgeStability_);
        block_ = canonical ? blk.target : blk.altTarget;
        pendingEdge_ = BranchEdge::Cond;
        break;
      }
      case Term::Loop: {
        unsigned &left =
            loopRemaining_[size_t(routine_) * B + block_];
        if (left > 0) {
            --left;
            block_ = blk.target;
            pendingEdge_ = BranchEdge::Loop;
        } else {
            left = blk.trips; // re-arm for the next activation
            block_ += 1;
            pendingEdge_ = BranchEdge::Seq;
        }
        break;
      }
      case Term::Call:
        if (stack_.size() >= callDepth_) {
            // Depth cap: the call is elided and execution falls
            // through to the would-be return point.
            block_ += 1;
            pendingEdge_ = BranchEdge::Seq;
        } else {
            stack_.push_back({routine_, block_ + 1});
            routine_ = rng_.chance(edgeStability_) ? blk.target
                                                   : blk.altTarget;
            block_ = 0;
            pendingEdge_ = BranchEdge::Call;
        }
        break;
      case Term::Ret:
        if (stack_.empty()) {
            // Dispatcher: tail-jump to the canonical successor
            // routine (a stable, learnable edge — not a return).
            routine_ = routines_[routine_].nextRoutine;
            block_ = 0;
            pendingEdge_ = BranchEdge::Cond;
        } else {
            Frame f = stack_.back();
            stack_.pop_back();
            routine_ = f.routine;
            block_ = f.block;
            pendingEdge_ = BranchEdge::Ret;
        }
        break;
    }
    idx_ = 0;
    nextPc_ = curBlock().start;
}

void
ProgramStructureModel::annotate(TraceRecord &rec)
{
    const Block &blk = curBlock();
    rec.pc = nextPc_;
    rec.gap = blk.gaps[idx_];
    rec.edge = pendingEdge_;
    pendingEdge_ = BranchEdge::Seq;
    nextPc_ += (Addr(rec.gap) + 1) * kInstBytes;
    ++idx_;
    if (idx_ >= blk.gaps.size())
        takeTerminator();
}

} // namespace pvsim
