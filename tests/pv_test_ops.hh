/**
 * @file
 * Test-only answer targets: a PvOpTarget, a PhtListener and a
 * BtbListener that run one std::function per operation, so that a
 * test states inline, as a lambda, what it does with a proxy op's
 * line or with a lookup's answer:
 *
 *   proxy.access({table, set, PvReqClass::Demand,
 *                 fnOp([&](PvLineView v) { ... })});
 *   lookup(pht, key, [&](bool found, SpatialPattern p) { ... });
 *   lookup(btb, pc, [&](bool found, Addr target) { ... });
 *
 * Each call files its function under a ticket and passes the ticket
 * as the op's token (the PHT trigger's pc, the BTB lookup's token);
 * the answer takes the function back out and runs it once. lookup()
 * makes its stub the table's listener, replacing any other.
 */

#ifndef PVSIM_TESTS_PV_TEST_OPS_HH
#define PVSIM_TESTS_PV_TEST_OPS_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/pv_proxy.hh"
#include "cpu/btb.hh"
#include "prefetch/pht.hh"

namespace pvsim {

/** Functions waiting for their answer, each under a ticket. */
template <class Fn>
class Tickets
{
  public:
    uint64_t
    add(Fn fn)
    {
        if (free_.empty()) {
            fns_.push_back(std::move(fn));
            return fns_.size() - 1;
        }
        uint64_t t = free_.back();
        free_.pop_back();
        fns_[t] = std::move(fn);
        return t;
    }

    /** Ticket t's function, which leaves the table (so it may file
     *  new tickets while it runs). */
    Fn
    take(uint64_t t)
    {
        Fn fn = std::move(fns_.at(t));
        fns_[t] = nullptr;
        free_.push_back(t);
        return fn;
    }

  private:
    std::vector<Fn> fns_;
    std::vector<uint64_t> free_;
};

/** Completes each proxy op by running its function on the line. */
class FnOps final : public PvOpTarget
{
  public:
    using Fn = std::function<void(PvLineView view)>;

    PvOp
    op(Fn fn)
    {
        PvOp o;
        o.target = this;
        o.token[0] = tickets_.add(std::move(fn));
        return o;
    }

    void
    complete(const PvOp &op, PvLineView view) override
    {
        tickets_.take(op.token[0])(view);
    }

  private:
    Tickets<Fn> tickets_;
};

/** A Demand op that runs fn on its line (null when dropped). */
inline PvOp
fnOp(FnOps::Fn fn)
{
    static FnOps ops;
    return ops.op(std::move(fn));
}

/** Answers each PHT lookup by running its function. */
class FnPhtListener final : public PhtListener
{
  public:
    using Fn = std::function<void(bool found, SpatialPattern pattern)>;

    void
    lookup(PatternHistoryTable &pht, PhtKey key, Fn fn)
    {
        pht.setListener(this);
        pht.lookup(key, PhtTrigger{tickets_.add(std::move(fn)), 0});
    }

    void
    phtAnswer(const PhtTrigger &trigger, bool found,
              SpatialPattern pattern) override
    {
        tickets_.take(trigger.pc)(found, pattern);
    }

  private:
    Tickets<Fn> tickets_;
};

/** pht.lookup(key) answered through fn. */
inline void
lookup(PatternHistoryTable &pht, PhtKey key, FnPhtListener::Fn fn)
{
    static FnPhtListener listener;
    listener.lookup(pht, key, std::move(fn));
}

/** Answers each BTB lookup by running its function. */
class FnBtbListener final : public BtbListener
{
  public:
    using Fn = std::function<void(bool found, Addr target)>;

    void
    lookup(BtbPredictor &btb, Addr pc, Fn fn)
    {
        btb.setListener(this);
        btb.lookup(pc, tickets_.add(std::move(fn)));
    }

    void
    btbAnswer(uint64_t token, bool found, Addr target) override
    {
        tickets_.take(token)(found, target);
    }

  private:
    Tickets<Fn> tickets_;
};

/** btb.lookup(pc) answered through fn. */
inline void
lookup(BtbPredictor &btb, Addr pc, FnBtbListener::Fn fn)
{
    static FnBtbListener listener;
    listener.lookup(btb, pc, std::move(fn));
}

} // namespace pvsim

#endif // PVSIM_TESTS_PV_TEST_OPS_HH
