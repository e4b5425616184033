#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pvsim {

EventQueue::~EventQueue()
{
    // Heap entries and parked lane entries still own their
    // callables. Chunk storage is released by chunks_.
    auto destroy = [](Event *e) {
        if (e->destroy)
            e->destroy(e->storage);
    };
    std::for_each(heap_.begin(), heap_.end(), destroy);
    std::for_each(lane_.begin(), lane_.end(), destroy);
    std::for_each(front_.begin(), front_.end(), destroy);
}

EventQueue::Event *
EventQueue::acquire()
{
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
    return e;
}

void
EventQueue::commit(Event *e)
{
    pv_assert(e->when >= curTick_,
              "event scheduled in the past (%llu < %llu)",
              (unsigned long long)e->when,
              (unsigned long long)curTick_);
    // The lane stands in for the default-priority polls of each
    // tick only if nothing else of that priority interleaves with
    // them, and only if nothing runs ahead of the pass slot once it
    // has gone by (scheduled by the pass itself, by a CPU event, or
    // from outside any event).
    pv_assert(parked_ == 0 || e->priority != kPrioDefault ||
                  e->when >= curTick_ + 2,
              "default-priority event %llu tick(s) ahead while "
              "retries are parked: it would run out of order with "
              "the retry pass",
              (unsigned long long)(e->when - curTick_));
    pv_assert(e->when > curTick_ || e->priority > kPrioRetry ||
                  runningPrio_ < kPrioRetry ||
                  (parked_ == 0 && runningPrio_ != kPrioRetry),
              "priority %d scheduled at the current tick after its "
              "retry pass slot", e->priority);
    e->seq = nextSeq_++;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
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
    return heap_.front()->when;
}

EventQueue::Event *
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event *e = heap_.back();
    heap_.pop_back();
    return e;
}

uint64_t
EventQueue::runUntil(Tick limit)
{
    uint64_t executed = 0;
    while (!heap_.empty() && heap_.front()->when <= limit) {
        Event *e = popTop();
        pv_assert(e->when >= curTick_, "event queue went backwards");
        curTick_ = e->when;
        // The callable may schedule (allocating nodes); this node is
        // out of the heap and off the freelist, so its storage stays
        // valid until released below.
        runningPrio_ = e->priority;
        e->invoke(e->storage);
        runningPrio_ = kIdle;
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
    for (const auto *seg : {&front_, &lane_}) {
        for (Event *e : *seg) {
            unwait(e);
            discard(e);
        }
    }
    front_.clear();
    lane_.clear();
    parked_ = 0;
    passAt_[0] = passAt_[1] = kMaxTick;
    lastParkTick_ = kMaxTick;
    curTick_ = 0;
}

// ---------------------------------------------------------------------
// Retry lane
// ---------------------------------------------------------------------

void
EventQueue::enqueueLane(Event *e)
{
    ++parked_;
    lastParkTick_ = curTick_;
    if (runningPrio_ < kPrioRetry) {
        // Refused before this tick's pass: retried from the next
        // tick on, ahead of the entries carried over.
        mergeStaleFront();
        front_.push_back(e);
    } else {
        // During a pass, lane_ is the pass's outcome in order;
        // after it (CPU events, outside any event) the back.
        mergeFront();
        lane_.push_back(e);
    }
}

void
EventQueue::mergeFront()
{
    if (front_.empty())
        return;
    lane_.insert(lane_.begin(), front_.begin(), front_.end());
    front_.clear();
}

void
EventQueue::mergeStaleFront()
{
    if (!front_.empty() && front_.back()->when < curTick_)
        mergeFront();
}

void
EventQueue::scheduleReleasePasses()
{
    // Entries parked before this tick are due now: this tick's pass
    // sees the release unless it has run already. Entries parked
    // earlier this tick (and those a running pass already
    // re-attempted) are never retried before the next tick.
    if (runningPrio_ < kPrioRetry) {
        mergeStaleFront();
        if (!lane_.empty())
            schedulePass(curTick_);
        if (lastParkTick_ == curTick_)
            schedulePass(curTick_ + 1);
    } else if (runningPrio_ > kPrioRetry ||
               lastParkTick_ == curTick_) {
        schedulePass(curTick_ + 1);
    }
}

void
EventQueue::schedulePass(Tick when)
{
    if (passAt_[0] == when || passAt_[1] == when)
        return;
    passAt_[1] = passAt_[0];
    passAt_[0] = when;
    schedule(when, kPrioRetry, [this] { runPass(); });
}

void
EventQueue::runPass()
{
    const Tick now = curTick_;
    ++numPasses_;
    mergeFront();
    passWork_.swap(lane_);
    for (Event *e : passWork_) {
        if (e->when >= now) {
            lane_.push_back(e); // parked this tick: due next tick
            continue;
        }
        ++numPassExamined_;
        // Off the books while it runs, as a consumed entry is.
        --parked_;
        unwait(e);
        if (!e->attempt(e->storage)) {
            // Still refused: it keeps its slot and counts as parked
            // now, like an entry that re-ran and parked again.
            ++parked_;
            if (e->by)
                ++e->by->waiters_;
            e->when = now;
            lastParkTick_ = now;
            lane_.push_back(e);
            continue;
        }
        ++numPassReruns_;
        if (e->destroy)
            e->destroy(e->storage);
        release(e);
    }
    passWork_.clear();
}

std::vector<std::string>
EventQueue::parkedNames() const
{
    std::vector<std::string> names;
    for (const auto *seg : {&front_, &lane_})
        for (const Event *e : *seg)
            names.push_back(*e->who);
    return names;
}

} // namespace pvsim
