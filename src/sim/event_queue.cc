#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pvsim {

EventQueue::EventQueue() : wheel_(std::make_unique<Bucket[]>(kWheelTicks))
{
}

template <typename Fn>
void
EventQueue::clearWheel(Fn fn)
{
    for (size_t w = 0; w < kBusyWords; ++w) {
        for (uint64_t bits = busy_[w]; bits; bits &= bits - 1) {
            Bucket &b = wheel_[w * 64 + unsigned(__builtin_ctzll(bits))];
            for (size_t c = 0; c < kNumClasses; ++c) {
                for (Event *e = b.head[c]; e;) {
                    Event *next = e->next;
                    fn(e);
                    e = next;
                }
                b.head[c] = b.tail[c] = nullptr;
            }
        }
        busy_[w] = 0;
    }
    onWheel_ = 0;
}

EventQueue::~EventQueue()
{
    // Wheel, overflow and parked lane entries still own their
    // callables. Chunk storage is released by chunks_.
    auto destroy = [](Event *e) {
        if (e->destroy)
            e->destroy(e->storage);
    };
    clearWheel(destroy);
    std::for_each(overflow_.begin(), overflow_.end(), destroy);
    std::for_each(lane_.begin(), lane_.end(), destroy);
    std::for_each(front_.begin(), front_.end(), destroy);
}

EventQueue::Event *
EventQueue::acquire()
{
    if (!freeHead_) {
        auto chunk = std::make_unique<Event[]>(kChunkEvents);
        for (size_t i = 0; i < kChunkEvents; ++i) {
            chunk[i].next = freeHead_;
            freeHead_ = &chunk[i];
        }
        freeCount_ += kChunkEvents;
        chunks_.push_back(std::move(chunk));
    }
    Event *e = freeHead_;
    freeHead_ = e->next;
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
              "retry pass slot", int(e->priority));
    if (e->when - curTick_ < kWheelTicks) {
        append(e);
        return;
    }
    e->seq = nextSeq_++;
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void
EventQueue::release(Event *e)
{
    e->next = freeHead_;
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
EventQueue::append(Event *e)
{
    const size_t b = e->when & (kWheelTicks - 1);
    Bucket &bucket = wheel_[b];
    e->next = nullptr;
    if (Event *tail = bucket.tail[e->priority])
        tail->next = e;
    else
        bucket.head[e->priority] = e;
    bucket.tail[e->priority] = e;
    busy_[b / 64] |= uint64_t(1) << (b % 64);
    ++onWheel_;
}

EventQueue::Event *
EventQueue::popFront(size_t b)
{
    Bucket &bucket = wheel_[b];
    size_t c = 0;
    while (!bucket.head[c])
        ++c;
    Event *e = bucket.head[c];
    bucket.head[c] = e->next;
    if (!e->next) {
        bucket.tail[c] = nullptr;
        if (std::none_of(bucket.head, bucket.head + kNumClasses,
                         [](const Event *h) { return h; }))
            busy_[b / 64] &= ~(uint64_t(1) << (b % 64));
    }
    --onWheel_;
    return e;
}

Tick
EventQueue::busyOffset() const
{
    const size_t now = curTick_ & (kWheelTicks - 1);
    size_t w = now / 64;
    uint64_t bits = busy_[w] & (~uint64_t(0) << (now % 64));
    // At most one lap: past the last bucket the scan wraps to the
    // first, and ends in now's word below now.
    while (!bits) {
        w = (w + 1) % kBusyWords;
        bits = busy_[w];
    }
    const size_t b = w * 64 + unsigned(__builtin_ctzll(bits));
    return (b - now) & (kWheelTicks - 1);
}

void
EventQueue::advance(Tick t)
{
    curTick_ = t;
    while (!overflow_.empty() &&
           overflow_.front()->when - t < kWheelTicks) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        append(overflow_.back());
        overflow_.pop_back();
    }
}

void
EventQueue::setCurTick(Tick to)
{
    pv_assert(to >= curTick_, "cannot rewind time");
    pv_assert(empty() || nextTick() >= to,
              "setCurTick would skip pending events");
    advance(to);
}

Tick
EventQueue::nextTick() const
{
    pv_assert(!empty(), "nextTick on an empty queue");
    // Every overflow event lies beyond every wheel event.
    return onWheel_ ? curTick_ + busyOffset() : overflow_.front()->when;
}

uint64_t
EventQueue::runTick()
{
    const size_t b = curTick_ & (kWheelTicks - 1);
    uint64_t executed = 0;
    while (busy_[b / 64] >> (b % 64) & 1) {
        Event *e = popFront(b);
        // The callable may schedule (allocating nodes); this node is
        // off the wheel and off the freelist, so its storage stays
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
EventQueue::runUntil(Tick limit)
{
    uint64_t executed = 0;
    while (!empty()) {
        const Tick t = nextTick();
        if (t > limit)
            break;
        advance(t);
        executed += runTick();
    }
    return executed;
}

uint64_t
EventQueue::runOneTick()
{
    if (empty())
        return 0;
    advance(nextTick());
    return runTick();
}

void
EventQueue::reset()
{
    clearWheel([this](Event *e) { discard(e); });
    for (Event *e : overflow_)
        discard(e);
    overflow_.clear();
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
