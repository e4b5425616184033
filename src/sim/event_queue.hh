/**
 * @file
 * Discrete-event queue: the backbone of timing-mode simulation.
 * Events are closures scheduled at absolute ticks; same-tick events
 * run by priority class (response, default, retry, CPU), and within
 * a class in scheduling order.
 *
 * The calendar wheel. Timing delays are short (DRAM responses, the
 * longest, land a few hundred ticks ahead), so the queue is a
 * calendar (R. Brown, "Calendar queues", CACM 31(10), 1988) of
 * kWheelTicks one-tick buckets: the event due at tick t sits in
 * bucket t mod kWheelTicks, which holds one intrusive FIFO per
 * priority class, and a bitmap marks the busy buckets. Only the
 * ticks [curTick, curTick + kWheelTicks) are on the wheel, so a
 * bucket holds one tick's events. schedule() appends to a FIFO; the
 * run loop finds the next busy bucket in the bitmap (wrapping from
 * the last bucket to the first) and pops the lowest busy class's
 * head until the bucket drains. An event may schedule into its own
 * tick, a lower class included: that class runs next.
 *
 * The overflow heap. An event kWheelTicks or more ticks ahead waits
 * in a binary heap ordered by (tick, class, scheduling sequence)
 * and moves onto the wheel, in that order, as soon as time comes
 * within kWheelTicks of it: each time curTick advances, before any
 * event of the new tick runs. Nothing can be scheduled directly
 * into a tick before it is on the wheel, so the migrated events of
 * a tick lead every class FIFO of it, in sequence order, ahead of
 * the events scheduled directly there later. Every same-tick order
 * is therefore exactly the order of one heap keyed by (tick, class,
 * sequence).
 *
 * Event nodes are pooled: each node carries inline storage for the
 * scheduled callable, and executed nodes return to an intrusive
 * freelist instead of being freed — doing for events what
 * PacketPool did for packets. The wheel links pooled nodes and is
 * allocated once with the queue, so steady-state scheduling
 * allocates nothing (asserted in tests). Callables larger than the
 * inline slot are boxed on the heap transparently. A scheduled
 * event always runs, unless reset() drops it first: there is no
 * cancellation.
 *
 * The retry lane. A memory device that refuses a request
 * (MSHRs full, send queue clogged) changes nothing but a reject
 * counter, so re-asking it every cycle is wasted work until the
 * device releases something. Instead the refused sender park()s a
 * retry closure in the lane, on the device that refused it (a
 * Refuser, which counts the entries waiting on it). The device
 * calls noteRelease() on itself wherever its acceptance can move
 * toward "accept" (an MSHR allocated or freed, a lookup resolved,
 * a block installed, a send-queue slot opened). A release at a
 * device nobody waits on is free; otherwise it schedules a *pass*:
 * one event at kPrioRetry that examines the parked entries in lane
 * order.
 *
 * Why this is exact. The reference is a sender that re-asks every
 * cycle: each refusal re-arms a default-priority poll one tick
 * later. Every other default-priority event the models schedule
 * lies at least two ticks ahead, so the polls of tick t form one
 * block: after the other default-priority events of t, before
 * every kPrioCpu event, ordered by when they were refused during
 * t-1. A pass at kPrioRetry sits exactly there, and the lane keeps
 * that order:
 *
 *  - an entry refused during the response- or default-priority
 *    events of tick t is not re-attempted at t; at t+1 it goes
 *    ahead of the entries carried over;
 *  - entries refused during a pass keep the pass's order;
 *  - entries refused during CPU events (or outside any event) go
 *    to the back.
 *
 * A poll could only have succeeded after its device released
 * something: what decides acceptance is the device's own state,
 * and every change of it toward "accept" is a release there. So
 * passes run only after a release at a device with waiters: this
 * tick if the release came from a response- or default-priority
 * event, else (during a pass, a CPU event, or after an entry
 * refused earlier this tick) the next tick too. Releases at other
 * devices cannot change the answer and schedule nothing.
 *
 * A pass does not have to re-run an entry to learn that it is
 * still refused. An entry may answer, without side effects, that
 * its device certainly refuses it (SendQueue asks
 * MemDevice::certainlyRefuses): it then keeps its lane slot
 * without running. That is the slot a re-run that was refused
 * would have re-parked into, since entries refused during a pass
 * keep the pass's order. A kept entry also counts as parked at the
 * pass tick, exactly like a re-parked one: it is not due again
 * before the next tick, and a release later in the same tick (a
 * one-tick lookup resolving further down the pass, a CPU event)
 * schedules the next tick's pass for it.
 *
 * The polls a parked sender skipped, kept passes included, are
 * credited to the refusing device's reject count by the sender
 * when it resumes (MemDevice::creditRejects), so every statistic
 * matches the polling protocol bit for bit.
 *
 * A one-tick default-priority event would interleave with that
 * block by scheduling order, so such events (one-tick cache
 * lookups) enter the lane through deferToNextPass() instead, which
 * forces a pass on the next tick. commit() asserts the premises:
 * while anything is parked, no default-priority event is
 * scheduled fewer than two ticks ahead, and nothing is scheduled to
 * run ahead of a tick's pass slot once that slot has gone by.
 */

#ifndef PVSIM_SIM_EVENT_QUEUE_HH
#define PVSIM_SIM_EVENT_QUEUE_HH

#include <climits>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pvsim {

/**
 * What a parked retry waits on: the device that refused it. The
 * event queue counts the lane entries waiting on each Refuser, so
 * that a release there wakes the lane only when it can help.
 */
class Refuser
{
  public:
    /** Lane entries waiting on this device. */
    unsigned retryWaiters() const { return waiters_; }

  private:
    friend class EventQueue;
    unsigned waiters_ = 0;
};

/** Tick-ordered queue of callbacks with stable same-tick ordering. */
class EventQueue
{
  public:
    /** The priority classes of a tick (lower executes first); each
     *  is one FIFO of a wheel bucket. */
    enum Priority : uint8_t {
        kPrioResponse, ///< deliver responses before new requests
        kPrioDefault,
        kPrioRetry, ///< retry-lane passes (see the file comment)
        kPrioCpu,   ///< CPU ticks run after memory-system events
    };
    static constexpr size_t kNumClasses = kPrioCpu + 1;

    /** Ticks on the wheel: an event this far ahead or further waits
     *  in the overflow heap (see the file comment). */
    static constexpr Tick kWheelTicks = 1024;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule fn to run at absolute tick when.
     * @pre when >= curTick().
     */
    template <typename F>
    void
    schedule(Tick when, Priority priority, F &&fn)
    {
        Event *e = acquire();
        e->when = when;
        e->priority = priority;
        e->invoke = emplaceCallable<void>(*e, std::forward<F>(fn));
        commit(e);
    }

    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        schedule(when, kPrioDefault, std::forward<F>(fn));
    }

    // -- Retry lane (see the file comment) ----------------------------

    /**
     * Park an attempt that `by` refused: a pass after a release at
     * `by` calls fn. fn re-attempts, and parks again if refused; or
     * it returns false without side effects when it knows it is
     * still refused, and keeps its lane slot (a void fn always
     * re-attempts). `who` names the sender in diagnostics and must
     * outlive the entry.
     */
    template <typename F>
    void
    park(const std::string &who, Refuser &by, F &&fn)
    {
        ++by.waiters_;
        enqueueLane(laneNode(who, &by, std::forward<F>(fn)));
    }

    /**
     * Run fn in the next tick's pass, in lane order: the slot a
     * one-tick default-priority event would have had among the
     * retries. Forces that pass.
     */
    template <typename F>
    void
    deferToNextPass(const std::string &who, F &&fn)
    {
        enqueueLane(laneNode(who, nullptr, std::forward<F>(fn)));
        schedulePass(curTick_ + 1);
    }

    /**
     * Something an entry parked on `at` may be waiting for was
     * released: schedule the pass(es) that would see it. Free when
     * nothing waits on `at`.
     */
    void
    noteRelease(const Refuser &at)
    {
        if (at.waiters_ != 0)
            scheduleReleasePasses();
    }

    /** Entries waiting in the lane. */
    size_t numParked() const { return parked_; }

    /** Names of the parked entries (diagnostics; outside a pass). */
    std::vector<std::string> parkedNames() const;

    /** Passes run so far. */
    uint64_t numPasses() const { return numPasses_; }

    /** Due entries the passes examined (kept or re-run). */
    uint64_t numPassExamined() const { return numPassExamined_; }

    /** Examined entries the passes re-ran. */
    uint64_t numPassReruns() const { return numPassReruns_; }

    // -- Time ---------------------------------------------------------

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Advance time without events (used by drivers that know the
     * next interesting tick). @pre to >= curTick().
     */
    void setCurTick(Tick to);

    /** True if no events are pending. Parked lane entries do not
     *  count: only a release wakes them. */
    bool empty() const { return numPending() == 0; }

    /** Number of pending events. */
    size_t numPending() const { return onWheel_ + overflow_.size(); }

    /** Tick of the earliest pending event. @pre !empty(). */
    Tick nextTick() const;

    /**
     * Run events until the queue drains or limit is exceeded
     * (events scheduled at ticks > limit stay queued).
     * @return Number of events executed.
     */
    uint64_t runUntil(Tick limit = kMaxTick);

    /** Execute exactly the events of the current earliest tick. */
    uint64_t runOneTick();

    /** Drop all pending events and parked entries; rewind time to
     *  zero. */
    void reset();

    /** Total events ever executed (rows' `events`, tests). */
    uint64_t numExecuted() const { return numExecuted_; }

    // -- Freelist observability (tests, pvbench) --------------------

    /** Event nodes ever allocated from the pool's chunks. */
    size_t poolCapacity() const { return chunks_.size() * kChunkEvents; }

    /** Event nodes currently on the freelist. */
    size_t poolFree() const { return freeCount_; }

  private:
    /** Inline callable slot: covers every model closure (a few
     *  captured pointers) and a std::function; larger callables
     *  fall back to a heap box. */
    static constexpr size_t kInlineBytes = 48;
    /** Event nodes per pool chunk. */
    static constexpr size_t kChunkEvents = 128;
    /** runningPrio_ outside any event. */
    static constexpr int kIdle = INT_MAX;

    struct Event {
        /** Event: due tick. Lane: tick the entry was parked. */
        Tick when;
        union {
            /** Overflow heap: scheduling order (same-tick
             *  tie-break; the wheel's FIFOs keep it implicitly). */
            uint64_t seq;
            /** Lane: the sender's name (diagnostics). */
            const std::string *who;
            /** Wheel: the next event of its tick and class.
             *  Freelist: the next free node. */
            Event *next;
        };
        union {
            /** Event: run the stored callable. */
            void (*invoke)(void *storage);
            /** Lane: re-attempt; false when the entry keeps its
             *  slot without having run. */
            bool (*attempt)(void *storage);
        };
        /** Destroy it without running (nullptr when trivial). */
        void (*destroy)(void *storage);
        Priority priority;
        /** Lane: the device the entry waits on (nullptr for a
         *  deferred one-tick event). */
        Refuser *by;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };
    static_assert(sizeof(Event) <= 96, "event nodes are pooled by the "
                                       "thousand: keep them small");

    template <typename R, typename F>
    static R
    callInline(void *p)
    {
        return (*std::launder(reinterpret_cast<F *>(p)))();
    }

    template <typename F>
    static void
    destroyInline(void *p)
    {
        std::launder(reinterpret_cast<F *>(p))->~F();
    }

    template <typename R, typename F>
    static R
    callBoxed(void *p)
    {
        return (**std::launder(reinterpret_cast<F **>(p)))();
    }

    template <typename F>
    static void
    destroyBoxed(void *p)
    {
        delete *std::launder(reinterpret_cast<F **>(p));
    }

    template <typename R>
    using Caller = R (*)(void *storage);

    /** Store fn in e; returns the function that calls it. */
    template <typename R, typename F>
    Caller<R>
    emplaceCallable(Event &e, F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (static_cast<void *>(e.storage))
                Fn(std::forward<F>(fn));
            e.destroy = std::is_trivially_destructible_v<Fn>
                            ? nullptr
                            : &destroyInline<Fn>;
            return &callInline<R, Fn>;
        } else {
            new (static_cast<void *>(e.storage))
                Fn *(new Fn(std::forward<F>(fn)));
            e.destroy = &destroyBoxed<Fn>;
            return &callBoxed<R, Fn>;
        }
    }

    /** A lane node parked now by `who`, waiting on `by`. */
    template <typename F>
    Event *
    laneNode(const std::string &who, Refuser *by, F &&fn)
    {
        Event *e = acquire();
        e->when = curTick_;
        e->who = &who;
        e->by = by;
        if constexpr (std::is_void_v<std::invoke_result_t<F &>>) {
            e->attempt = emplaceCallable<bool>(
                *e, [f = std::forward<F>(fn)]() mutable {
                    f();
                    return true;
                });
        } else {
            e->attempt = emplaceCallable<bool>(*e, std::forward<F>(fn));
        }
        return e;
    }

    /** Take a node from the pool (growing it by a chunk if empty). */
    Event *acquire();

    /** Queue an initialized node on the wheel or, kWheelTicks or
     *  more ahead, in the overflow heap; checks the lane's ordering
     *  premises. */
    void commit(Event *e);

    /** Destroy an unexecuted node's callable and recycle the node. */
    void discard(Event *e);

    /** Recycle a node whose callable has already been consumed. */
    void release(Event *e);

    /** Overflow min-heap comparator: earliest tick, then lowest
     *  class, then scheduling order for stability. */
    struct Later {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->seq > b->seq;
        }
    };

    // -- Wheel internals -------------------------------------------------

    /** Append e to the FIFO of its tick and class. @pre e->when is
     *  within kWheelTicks of curTick_. */
    void append(Event *e);

    /** Unlink the head of bucket b's lowest busy class. @pre bucket
     *  b is busy. */
    Event *popFront(size_t b);

    /** Ticks from curTick_ to the earliest busy bucket. @pre an
     *  event is on the wheel. */
    Tick busyOffset() const;

    /** Move time to t (>= curTick_) and bring the overflow events
     *  now within kWheelTicks onto the wheel. */
    void advance(Tick t);

    /** Run the events of curTick_, new same-tick ones included. */
    uint64_t runTick();

    /** Unlink every wheel event, passing each to fn. */
    template <typename Fn>
    void clearWheel(Fn fn);

    // -- Lane internals -------------------------------------------------

    /** Append a parked node where the running phase puts it. */
    void enqueueLane(Event *e);

    /** Move the front segment (entries parked during an earlier
     *  tick's response/default events, or during this tick's once
     *  its pass has begun) ahead of the carried-over entries. */
    void mergeFront();

    /** mergeFront() if the front segment is from an earlier tick. */
    void mergeStaleFront();

    /** The pass(es) a release at the current point needs. */
    void scheduleReleasePasses();

    /** Schedule a pass at `when` unless one is already due then. */
    void schedulePass(Tick when);

    /** Examine every due parked entry, in lane order. */
    void runPass();

    /** Drop a consumed or discarded lane entry from its device's
     *  waiters. */
    static void
    unwait(const Event *e)
    {
        if (e->by)
            --e->by->waiters_;
    }

    /** One tick's events: a FIFO per class, linked through next. */
    struct Bucket {
        Event *head[kNumClasses];
        Event *tail[kNumClasses];
    };
    static constexpr size_t kBusyWords = kWheelTicks / 64;
    static_assert(kWheelTicks % 64 == 0 &&
                      (kWheelTicks & (kWheelTicks - 1)) == 0,
                  "the wheel is a power of two of whole bitmap words");

    /** Bucket t mod kWheelTicks: the events of tick t, for t in
     *  [curTick_, curTick_ + kWheelTicks). */
    std::unique_ptr<Bucket[]> wheel_;
    /** Bit b set iff bucket b holds an event. */
    uint64_t busy_[kBusyWords] = {};
    /** Events on the wheel. */
    size_t onWheel_ = 0;
    /** Events kWheelTicks or more ahead when scheduled, as a
     *  min-heap under Later. */
    std::vector<Event *> overflow_;
    std::vector<std::unique_ptr<Event[]>> chunks_;
    Event *freeHead_ = nullptr;
    size_t freeCount_ = 0;
    Tick curTick_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t numExecuted_ = 0;
    /** Priority of the executing event; kIdle outside events. */
    int runningPrio_ = kIdle;

    /** Parked entries in pass order (the carried-over segment). */
    std::vector<Event *> lane_;
    /** Entries parked during the response/default events of one
     *  tick: they lead the lane from the next tick on. */
    std::vector<Event *> front_;
    /** The running pass's entries (kept for its capacity); lane_
     *  collects the pass's outcome. */
    std::vector<Event *> passWork_;
    /** Entries in lane_, front_ and the rest of passWork_. */
    size_t parked_ = 0;
    /** Tick of the latest park (kMaxTick: none yet). */
    Tick lastParkTick_ = kMaxTick;
    /** Ticks with a pass already scheduled (at most two are ever
     *  outstanding: this tick and the next). */
    Tick passAt_[2] = {kMaxTick, kMaxTick};
    uint64_t numPasses_ = 0;
    uint64_t numPassExamined_ = 0;
    uint64_t numPassReruns_ = 0;
};

} // namespace pvsim

#endif // PVSIM_SIM_EVENT_QUEUE_HH
