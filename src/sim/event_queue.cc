#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pvsim {

EventQueue::~EventQueue()
{
    for (Event *e : heap_) {
        if (e->destroy)
            e->destroy(e->storage);
    }
    // Chunk storage is released by chunks_; no per-node delete.
}

EventQueue::Event *
EventQueue::acquire(Tick when, int priority)
{
    pv_assert(when >= curTick_,
              "event scheduled in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)curTick_);
    if (!freeHead_) {
        auto chunk = std::make_unique<Event[]>(kChunkEvents);
        for (size_t i = 0; i < kChunkEvents; ++i) {
            chunk[i].nextFree = freeHead_;
            freeHead_ = &chunk[i];
        }
        freeCount_ += kChunkEvents;
        chunks_.push_back(std::move(chunk));
    }
    Event *e = freeHead_;
    freeHead_ = e->nextFree;
    --freeCount_;
    e->when = when;
    e->priority = priority;
    e->id = nextId_++;
    return e;
}

void
EventQueue::commit(Event *e)
{
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    pending_.insert(e->id);
}

void
EventQueue::release(Event *e)
{
    e->nextFree = freeHead_;
    freeHead_ = e;
    ++freeCount_;
}

void
EventQueue::discard(Event *e)
{
    if (e->destroy)
        e->destroy(e->storage);
    release(e);
}

void
EventQueue::cancel(EventId id)
{
    if (pending_.erase(id) == 0)
        return; // already ran (or already cancelled)
    maybeCompact();
}

void
EventQueue::maybeCompact()
{
    // Every heap entry's id was added to pending_ at schedule() and
    // leaves both structures together (popNext, stale-top discard),
    // except on cancel — so the dead-entry count is exactly the
    // size difference.
    size_t dead = heap_.size() - pending_.size();
    if (heap_.size() < kCompactMinHeap || dead * 2 <= heap_.size())
        return;
    auto live_end =
        std::partition(heap_.begin(), heap_.end(),
                       [this](const Event *e) {
                           return pending_.count(e->id) != 0;
                       });
    for (auto it = live_end; it != heap_.end(); ++it)
        discard(*it);
    heap_.erase(live_end, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::setCurTick(Tick to)
{
    pv_assert(to >= curTick_, "cannot rewind time");
    pv_assert(empty() || nextTick() >= to,
              "setCurTick would skip pending events");
    curTick_ = to;
}

Tick
EventQueue::nextTick() const
{
    pv_assert(!heap_.empty(), "nextTick on an empty queue");
    // The heap may have stale (cancelled) entries at the top; they
    // can only be earlier than the earliest live event, so scanning
    // is needed for exactness. The common case has no stale top.
    if (pending_.count(heap_.front()->id))
        return heap_.front()->when;
    Tick best = kMaxTick;
    for (const Event *e : heap_) {
        if (e->when < best && pending_.count(e->id))
            best = e->when;
    }
    return best;
}

EventQueue::Event *
EventQueue::popNext()
{
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Event *e = heap_.back();
        heap_.pop_back();
        auto it = pending_.find(e->id);
        if (it == pending_.end()) {
            discard(e); // cancelled; reclaim silently
            continue;
        }
        pending_.erase(it);
        return e;
    }
    return nullptr;
}

uint64_t
EventQueue::runUntil(Tick limit)
{
    uint64_t executed = 0;
    while (!heap_.empty()) {
        // Peek: stop without popping if the earliest live event is
        // beyond the limit.
        Event *top = heap_.front();
        if (!pending_.count(top->id)) {
            // Stale top; pop and reclaim.
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            heap_.pop_back();
            discard(top);
            continue;
        }
        if (top->when > limit)
            break;
        Event *e = popNext();
        if (!e)
            break;
        pv_assert(e->when >= curTick_, "event queue went backwards");
        curTick_ = e->when;
        // The callable may schedule (allocating nodes) or cancel
        // (compacting the heap); this node is in neither structure
        // any more, so its storage stays valid until released below.
        e->invoke(e->storage);
        if (e->destroy)
            e->destroy(e->storage);
        release(e);
        ++numExecuted_;
        ++executed;
    }
    return executed;
}

uint64_t
EventQueue::runOneTick()
{
    if (empty())
        return 0;
    return runUntil(nextTick());
}

void
EventQueue::reset()
{
    for (Event *e : heap_)
        discard(e);
    heap_.clear();
    pending_.clear();
    curTick_ = 0;
}

} // namespace pvsim
