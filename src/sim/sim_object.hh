/**
 * @file
 * SimObject: base class for every named model component. Provides
 * the component's name, access to the shared event queue, the
 * execution mode (functional vs. timing), and a stats group rooted
 * at the object's name.
 */

#ifndef PVSIM_SIM_SIM_OBJECT_HH
#define PVSIM_SIM_SIM_OBJECT_HH

#include <functional>
#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "stats/group.hh"

namespace pvsim {

/**
 * Execution mode of the memory system.
 *
 * Functional mode resolves every access synchronously with zero
 * latency — state transitions (fills, evictions, writebacks,
 * invalidations) still happen, so contents and traffic stats are
 * exact; only time is absent. This reproduces the paper's
 * "functional simulation" experiments (Sections 4.2-4.3).
 *
 * Timing mode runs on the event queue with the configured latencies,
 * MSHR and bank contention; used for the speedup experiments
 * (Sections 4.4-4.5).
 */
enum class SimMode { Functional, Timing };

/** Shared context: one per simulated system. */
class SimContext
{
  public:
    explicit SimContext(SimMode mode = SimMode::Functional)
        : mode_(mode), root_(nullptr, "")
    {}

    SimMode mode() const { return mode_; }
    bool isTiming() const { return mode_ == SimMode::Timing; }

    /** The system's one event queue. */
    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }

    /** Same queue as events(). Kept for the benchmark job, which
     *  reads the event pool's size through it. */
    EventQueue &baseEvents() { return events_; }

    Tick curTick() const { return events_.curTick(); }

    stats::Group &statsRoot() { return root_; }

    /** Dump every registered stat of every SimObject. */
    void dumpStats(std::ostream &os) const { root_.dumpStats(os); }
    void resetStats() { root_.resetStats(); }

  private:
    SimMode mode_;
    EventQueue events_;
    stats::Group root_;
};

/** Named component with stats and event-scheduling helpers. */
class SimObject : public stats::Group
{
  public:
    /**
     * @param ctx    Owning simulation context.
     * @param parent Parent in the stats hierarchy (nullptr roots the
     *               object directly under the context).
     * @param name   Component name (becomes the stats prefix).
     */
    SimObject(SimContext &ctx, stats::Group *parent,
              const std::string &name)
        : stats::Group(parent ? parent : &ctx.statsRoot(), name),
          ctx_(ctx), name_(name)
    {}

    const std::string &name() const { return name_; }
    SimContext &ctx() { return ctx_; }
    Tick curTick() const { return ctx_.curTick(); }
    bool isTiming() const { return ctx_.isTiming(); }

    /** Schedule fn to run delay cycles from now (timing mode).
     *  Templated so small closures land in the event queue's inline
     *  node storage instead of being boxed through std::function. */
    template <typename F>
    void
    schedule(Cycles delay, F &&fn,
             EventQueue::Priority priority = EventQueue::kPrioDefault)
    {
        EventQueue &eq = ctx_.events();
        eq.schedule(eq.curTick() + delay, priority, std::forward<F>(fn));
    }

  private:
    SimContext &ctx_;
    std::string name_;
};

} // namespace pvsim

#endif // PVSIM_SIM_SIM_OBJECT_HH
