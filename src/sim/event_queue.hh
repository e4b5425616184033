/**
 * @file
 * Discrete-event queue: the backbone of timing-mode simulation.
 * Events are closures scheduled at absolute ticks; same-tick events
 * are ordered by priority (lower first), then by scheduling order.
 *
 * Event nodes are pooled: each node carries inline storage for the
 * scheduled callable, and executed/cancelled nodes return to an
 * intrusive freelist instead of the heap — doing for events what
 * PacketPool did for packets. Timing mode used to pay one heap node
 * plus a std::function allocation per event; steady-state scheduling
 * now allocates nothing (asserted in tests). Callables larger than
 * the inline slot are boxed on the heap transparently.
 */

#ifndef PVSIM_SIM_EVENT_QUEUE_HH
#define PVSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pvsim {

/** Tick-ordered queue of callbacks with stable same-tick ordering. */
class EventQueue
{
  public:
    using EventId = uint64_t;

    /** Standard event priorities (lower executes first). */
    enum Priority {
        kPrioResponse = -10, ///< deliver responses before new requests
        kPrioDefault = 0,
        kPrioCpu = 10, ///< CPU ticks run after memory-system events
    };

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule fn to run at absolute tick when.
     * @pre when >= curTick().
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, int priority, F &&fn)
    {
        Event *e = acquire(when, priority);
        emplaceCallable(*e, std::forward<F>(fn));
        commit(e);
        return e->id;
    }

    template <typename F>
    EventId
    schedule(Tick when, F &&fn)
    {
        return schedule(when, kPrioDefault, std::forward<F>(fn));
    }

    /**
     * Cancel a pending event; no-op if it already ran. Cancellation
     * is lazy — the heap entry (and its closure) stays until popped
     * — but the heap is compacted whenever dead entries outnumber
     * live ones, so cancel-heavy callers cannot grow it without
     * bound. (No current model cancels events; the bound is for
     * what speculative timing models will need.)
     */
    void cancel(EventId id);

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Advance time without events (used by drivers that know the
     * next interesting tick). @pre to >= curTick().
     */
    void setCurTick(Tick to);

    /** True if no pending (non-cancelled) events remain. */
    bool empty() const { return pending_.empty(); }

    /** Number of pending events. */
    size_t numPending() const { return pending_.size(); }

    /** Heap entries, live plus not-yet-reclaimed cancelled ones
     *  (observability for the compaction tests). */
    size_t heapSize() const { return heap_.size(); }

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

    /** Drop all pending events and rewind time to zero. */
    void reset();

    /** Total events ever executed (for microbenchmarks/tests). */
    uint64_t numExecuted() const { return numExecuted_; }

    // -- Freelist observability (tests, microbenchmarks) -------------

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

    struct Event {
        Tick when;
        int priority;
        EventId id;
        /** Run the stored callable. */
        void (*invoke)(void *storage);
        /** Destroy it without running (nullptr when trivial). */
        void (*destroy)(void *storage);
        /** Intrusive freelist link (only while free). */
        Event *nextFree;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    template <typename F>
    static void
    invokeInline(void *p)
    {
        (*std::launder(reinterpret_cast<F *>(p)))();
    }

    template <typename F>
    static void
    destroyInline(void *p)
    {
        std::launder(reinterpret_cast<F *>(p))->~F();
    }

    template <typename F>
    static void
    invokeBoxed(void *p)
    {
        (**std::launder(reinterpret_cast<F **>(p)))();
    }

    template <typename F>
    static void
    destroyBoxed(void *p)
    {
        delete *std::launder(reinterpret_cast<F **>(p));
    }

    template <typename F>
    void
    emplaceCallable(Event &e, F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (static_cast<void *>(e.storage))
                Fn(std::forward<F>(fn));
            e.invoke = &invokeInline<Fn>;
            e.destroy = std::is_trivially_destructible_v<Fn>
                            ? nullptr
                            : &destroyInline<Fn>;
        } else {
            new (static_cast<void *>(e.storage))
                Fn *(new Fn(std::forward<F>(fn)));
            e.invoke = &invokeBoxed<Fn>;
            e.destroy = &destroyBoxed<Fn>;
        }
    }

    /** Take a node from the pool, stamped with (when, priority, id).
     *  Asserts when >= curTick(). */
    Event *acquire(Tick when, int priority);

    /** Insert an initialized node into the heap and pending set. */
    void commit(Event *e);

    /** Destroy an unexecuted node's callable and recycle the node. */
    void discard(Event *e);

    /** Recycle a node whose callable has already been consumed. */
    void release(Event *e);

    /** Min-heap comparator: earliest tick, then lowest priority
     *  value, then insertion order for stability. */
    struct Later {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->id > b->id;
        }
    };

    /** Pop the earliest live entry; nullptr if none. Discards and
     *  recycles stale (cancelled) entries along the way. */
    Event *popNext();

    /** Drop cancelled entries when they exceed half the heap. */
    void maybeCompact();

    /** Below this size compaction is not worth the re-heapify. */
    static constexpr size_t kCompactMinHeap = 64;

    std::vector<Event *> heap_;
    std::unordered_set<EventId> pending_;
    std::vector<std::unique_ptr<Event[]>> chunks_;
    Event *freeHead_ = nullptr;
    size_t freeCount_ = 0;
    Tick curTick_ = 0;
    EventId nextId_ = 0;
    uint64_t numExecuted_ = 0;
};

} // namespace pvsim

#endif // PVSIM_SIM_EVENT_QUEUE_HH
