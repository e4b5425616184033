/**
 * @file
 * Tests for the discrete-event queue: ordering, priorities, stable
 * same-tick order, bounded runs, time control, the node pool, the
 * retry lane that stands in for per-cycle backpressure polling, and
 * the calendar wheel against an ordered map of every event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/port.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

using namespace pvsim;

TEST(EventQueue, RunsInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.runUntil(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameTickPriorityOrdering)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, EventQueue::kPrioCpu, [&] { order.push_back(2); });
    q.schedule(5, EventQueue::kPrioResponse,
               [&] { order.push_back(1); });
    q.schedule(5, EventQueue::kPrioDefault,
               [&] { order.push_back(15); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 15, 2}));
}

TEST(EventQueue, SameTickSamePriorityIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runUntil();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.numPending(), 1u);
    EXPECT_EQ(q.nextTick(), 30u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> ticks;
    std::function<void()> chain = [&] {
        ticks.push_back(q.curTick());
        if (ticks.size() < 5)
            q.schedule(q.curTick() + 3, chain);
    };
    q.schedule(0, chain);
    q.runUntil();
    EXPECT_EQ(ticks, (std::vector<Tick>{0, 3, 6, 9, 12}));
}

TEST(EventQueue, SameTickReentrantScheduling)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(1);
        q.schedule(5, [&] { order.push_back(2); });
    });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunOneTickExecutesExactlyOneTick)
{
    EventQueue q;
    int fired = 0;
    q.schedule(4, [&] { ++fired; });
    q.schedule(4, [&] { ++fired; });
    q.schedule(9, [&] { ++fired; });
    EXPECT_EQ(q.runOneTick(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.curTick(), 4u);
}

TEST(EventQueue, SetCurTickAdvancesIdleTime)
{
    EventQueue q;
    q.setCurTick(100);
    EXPECT_EQ(q.curTick(), 100u);
    int fired = 0;
    q.schedule(150, [&] { ++fired; });
    q.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 150u);
}

TEST(EventQueue, ResetDropsEverything)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&] { ++fired; });
    q.reset();
    EXPECT_TRUE(q.empty());
    q.runUntil();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.curTick(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        Tick when = Tick((i * 7919) % 1000);
        q.schedule(when, [&, when] {
            monotonic = monotonic && when >= last;
            last = when;
        });
    }
    q.runUntil();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.numExecuted(), 5000u);
}

TEST(SimContextTest, ModesAndScheduling)
{
    SimContext fn(SimMode::Functional);
    EXPECT_FALSE(fn.isTiming());
    SimContext tm(SimMode::Timing);
    EXPECT_TRUE(tm.isTiming());

    SimObject obj(tm, nullptr, "obj");
    int fired = 0;
    obj.schedule(5, [&] { ++fired; });
    tm.events().runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(obj.curTick(), 5u);
}

// ---------------------------------------------------------------------
// Event node pool (the intrusive freelist behind schedule())
// ---------------------------------------------------------------------

TEST(EventPool, SteadyStateSchedulingDoesNotGrowThePool)
{
    EventQueue q;
    // Warm up: one chunk's worth of churn.
    for (int i = 0; i < 1000; ++i) {
        q.schedule(q.curTick() + 1, [] {});
        q.runOneTick();
    }
    size_t capacity = q.poolCapacity();
    EXPECT_GT(capacity, 0u);
    // Steady state: schedule-execute cycles with a few events in
    // flight must recycle nodes instead of allocating chunks.
    for (int i = 0; i < 20000; ++i) {
        q.schedule(q.curTick() + 1, [] {});
        q.schedule(q.curTick() + 2, [] {});
        q.runOneTick();
    }
    EXPECT_EQ(q.poolCapacity(), capacity)
        << "steady-state scheduling allocated new chunks";
    q.runUntil();
    EXPECT_EQ(q.poolFree(), q.poolCapacity())
        << "every node must return to the freelist when drained";
}

TEST(EventPool, LargeCallablesAreBoxedAndDestroyed)
{
    auto token = std::make_shared<int>(7);
    EventQueue q;
    int sum = 0;
    // Capture well past the inline slot (48 bytes) to force the
    // heap-boxed path.
    struct Big {
        std::shared_ptr<int> p;
        char pad[96];
    };
    {
        Big big{token, {}};
        q.schedule(3, [big, &sum] { sum += *big.p; });
    }
    EXPECT_EQ(token.use_count(), 2);
    q.runUntil();
    EXPECT_EQ(sum, 7);
    EXPECT_EQ(token.use_count(), 1)
        << "boxed callable must be destroyed after execution";
}

TEST(EventPool, ResetDestroysPendingAndParkedClosures)
{
    // reset() is the one way a closure is destroyed without running:
    // it must release what a pending heap event and a parked retry
    // captured, and return both nodes to the pool.
    auto pending = std::make_shared<int>(1);
    auto parked = std::make_shared<int>(2);
    const std::string who = "sender";
    int fired = 0;
    EventQueue q;
    Refuser dev;
    q.schedule(10, [pending, &fired] { ++fired; });
    q.park(who, dev, [parked, &fired] { ++fired; });
    EXPECT_EQ(pending.use_count(), 2);
    EXPECT_EQ(parked.use_count(), 2);
    EXPECT_EQ(q.numParked(), 1u);
    EXPECT_EQ(dev.retryWaiters(), 1u);

    q.reset();
    EXPECT_EQ(pending.use_count(), 1);
    EXPECT_EQ(parked.use_count(), 1);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numParked(), 0u);
    EXPECT_EQ(dev.retryWaiters(), 0u);
    EXPECT_EQ(q.poolFree(), q.poolCapacity());
    q.noteRelease(dev);
    q.runUntil();
    EXPECT_EQ(fired, 0);
}

TEST(EventPool, WheelAndOverflowClosuresAreDestroyedUnrun)
{
    // One closure on the wheel, one in the overflow heap: reset()
    // and the destructor must each release both.
    auto near = std::make_shared<int>(1);
    auto far = std::make_shared<int>(2);
    int fired = 0;
    auto schedule = [&](EventQueue &q) {
        q.schedule(3, [near, &fired] { ++fired; });
        q.schedule(3 * EventQueue::kWheelTicks, [far, &fired] { ++fired; });
    };
    {
        EventQueue q;
        schedule(q);
        EXPECT_EQ(q.numPending(), 2u);
        EXPECT_EQ(near.use_count() + far.use_count(), 4);
        q.reset();
        EXPECT_EQ(near.use_count() + far.use_count(), 2);
        EXPECT_EQ(q.poolFree(), q.poolCapacity());
        schedule(q);
    }
    EXPECT_EQ(near.use_count() + far.use_count(), 2);
    EXPECT_EQ(fired, 0);
}

// ---------------------------------------------------------------------
// Retry lane
// ---------------------------------------------------------------------

namespace {

/** A sender whose attempts succeed only while `open`; a refused
 *  attempt parks a retry on `dev`. Logs (name, tick) of every
 *  attempt. */
struct Gate {
    explicit Gate(EventQueue &eq) : q(eq) {}

    EventQueue &q;
    Refuser dev;
    bool open = false;
    std::vector<std::pair<std::string, Tick>> attempts;

    void
    attempt(const std::string &who)
    {
        attempts.emplace_back(who, q.curTick());
        if (!open)
            q.park(who, dev, [this, &who] { attempt(who); });
    }
};

using Log = std::vector<std::pair<std::string, Tick>>;

const std::string kA = "a", kB = "b", kOld = "old", kNew = "new";

} // namespace

TEST(RetryLane, RetriesOnlyAfterReleaseInRefusalOrder)
{
    EventQueue q;
    Gate g(q);
    q.schedule(1, EventQueue::kPrioCpu, [&] {
        g.attempt(kA);
        g.attempt(kB);
    });
    for (Tick t = 2; t < 10; ++t)
        q.schedule(t, [] {}); // time passes, nothing is released
    q.schedule(10, [&] {
        g.open = true;
        q.noteRelease(g.dev);
    });
    q.runUntil();
    EXPECT_EQ(g.attempts, (Log{{"a", 1}, {"b", 1}, {"a", 10}, {"b", 10}}));
    EXPECT_EQ(q.numParked(), 0u);
}

TEST(RetryLane, CpuPriorityReleaseDefersPassToNextTick)
{
    EventQueue q;
    Gate g(q);
    q.schedule(1, EventQueue::kPrioCpu, [&] { g.attempt(kA); });
    q.schedule(5, EventQueue::kPrioCpu, [&] {
        g.open = true;
        q.noteRelease(g.dev); // this tick's pass slot has gone by
    });
    q.runUntil();
    EXPECT_EQ(g.attempts, (Log{{"a", 1}, {"a", 6}}));
}

TEST(RetryLane, EarlyRefusalSkipsItsTickThenLeads)
{
    EventQueue q;
    Gate g(q);
    q.schedule(1, EventQueue::kPrioCpu, [&] { g.attempt(kOld); });
    q.schedule(5, EventQueue::kPrioResponse,
               [&] { g.attempt(kNew); });
    q.schedule(5, [&] { q.noteRelease(g.dev); }); // gate stays shut
    q.schedule(6, EventQueue::kPrioCpu, [&] {
        g.open = true;
        q.noteRelease(g.dev);
    });
    q.runUntil();
    // Tick 5's pass retries only the carried-over entry; the one
    // refused earlier that tick leads from tick 6 on.
    EXPECT_EQ(g.attempts, (Log{{"old", 1},
                               {"new", 5},
                               {"old", 5},
                               {"new", 6},
                               {"old", 6},
                               {"new", 7},
                               {"old", 7}}));
}

TEST(RetryLane, OneTickEntryKeepsItsSlotBetweenRetries)
{
    EventQueue q;
    Gate g(q);
    static const std::string kLookup = "lookup";
    q.schedule(1, EventQueue::kPrioCpu, [&] {
        g.attempt(kA);
        q.deferToNextPass(kLookup, [&] {
            g.attempts.emplace_back(kLookup, q.curTick());
        });
        g.attempt(kB);
    });
    q.schedule(3, [&] {
        g.open = true;
        q.noteRelease(g.dev);
    });
    q.runUntil();
    // Tick 2's pass is forced by the one-tick entry alone.
    EXPECT_EQ(g.attempts, (Log{{"a", 1},
                               {"b", 1},
                               {"a", 2},
                               {"lookup", 2},
                               {"b", 2},
                               {"a", 3},
                               {"b", 3}}));
}

TEST(RetryLane, CertainRefusalKeepsItsSlotWithoutRunning)
{
    // `kept` knows without re-attempting that it is still refused;
    // the gate's entry must re-attempt to find out. Both wait on the
    // gate's device.
    EventQueue q;
    Gate g(q);
    static const std::string kKept = "kept";
    std::function<bool()> kept = [&] {
        if (!g.open)
            return false; // no side effects: keeps its slot
        g.attempts.emplace_back(kKept, q.curTick());
        return true;
    };
    q.schedule(1, EventQueue::kPrioCpu, [&] {
        g.attempts.emplace_back(kKept, q.curTick());
        q.park(kKept, g.dev, kept);
        g.attempt(kB);
    });
    q.schedule(3, [&] { q.noteRelease(g.dev); }); // gate stays shut
    Refuser other;
    q.schedule(4, [&] { q.noteRelease(other); }); // nobody waits on it
    q.schedule(5, [&] {
        g.open = true;
        q.noteRelease(g.dev);
    });
    q.runUntil();
    // The kept entry stays ahead of the one that re-parked at 3.
    EXPECT_EQ(g.attempts, (Log{{"kept", 1},
                               {"b", 1},
                               {"b", 3},
                               {"kept", 5},
                               {"b", 5}}));
    EXPECT_EQ(q.numPasses(), 2u);
    EXPECT_EQ(q.numPassExamined(), 4u);
    EXPECT_EQ(q.numPassReruns(), 3u);
    EXPECT_EQ(g.dev.retryWaiters(), 0u);
    EXPECT_EQ(q.numParked(), 0u);
}

namespace {

/** A device holding each accepted request for a while; refusals
 *  (and credited ones) are counted like Cache::mshrRejects. */
struct Bouncer : MemDevice {
    EventQueue &q;
    unsigned capacity;
    unsigned busy = 0;
    uint64_t rejects = 0;
    std::vector<Tick> accepted;

    Bouncer(EventQueue &eq, unsigned cap) : q(eq), capacity(cap) {}

    bool
    recvRequest(PacketPtr pkt) override
    {
        if (busy >= capacity) {
            ++rejects;
            return false;
        }
        ++busy;
        accepted.push_back(q.curTick());
        Tick hold = 7 + 3 * (accepted.size() % 4);
        q.schedule(q.curTick() + hold, EventQueue::kPrioResponse,
                   [this, pkt] {
                       delete pkt;
                       --busy;
                       q.noteRelease(*this);
                   });
        return true;
    }

    void creditRejects(uint64_t n) override { rejects += n; }
    void functionalAccess(Packet &) override {}
    std::string deviceName() const override { return "bouncer"; }
};

PacketPtr
request(int i)
{
    return new Packet(MemCmd::ReadReq, Addr(0x1000 + 64 * i), 0);
}

} // namespace

TEST(RetryLane, CreditedRejectsEqualPolling)
{
    // Reference: a sender that re-asks the device every cycle.
    EventQueue pq;
    Bouncer polled(pq, 2);
    std::deque<PacketPtr> pending;
    std::function<void()> poll = [&] {
        while (!pending.empty() && polled.recvRequest(pending.front()))
            pending.pop_front();
        if (!pending.empty())
            pq.schedule(pq.curTick() + 1, poll);
    };
    pq.schedule(0, EventQueue::kPrioCpu, [&] {
        for (int i = 0; i < 10; ++i)
            pending.push_back(request(i));
        poll();
    });
    pq.runUntil();

    // The same traffic through a SendQueue, which parks instead.
    EventQueue lq;
    Bouncer parked(lq, 2);
    static const std::string kSender = "sender";
    SendQueue sq(lq, kSender, nullptr);
    sq.setDevice(&parked);
    lq.schedule(0, EventQueue::kPrioCpu, [&] {
        for (int i = 0; i < 10; ++i)
            sq.push(request(i));
    });
    lq.runUntil();

    EXPECT_TRUE(sq.empty());
    EXPECT_EQ(parked.accepted, polled.accepted);
    EXPECT_GT(polled.rejects, 20u);
    EXPECT_EQ(parked.rejects, polled.rejects);
    EXPECT_LT(lq.numExecuted(), pq.numExecuted())
        << "parking must save the futile polls";
}

namespace {

/** A device that takes requests only while open. */
struct OpenGate : MemDevice {
    bool open = false;
    std::vector<Addr> accepted;

    bool
    recvRequest(PacketPtr pkt) override
    {
        if (!open)
            return false;
        accepted.push_back(pkt->addr);
        delete pkt;
        return true;
    }

    void functionalAccess(Packet &) override {}
    std::string deviceName() const override { return "gate"; }
};

} // namespace

TEST(SendQueueRing, KeepsFifoOrderAcrossWrapAndGrowth)
{
    EventQueue q;
    OpenGate gate;
    static const std::string kSender = "sender";
    SendQueue sq(q, kSender, nullptr);
    sq.setDevice(&gate);
    std::vector<Addr> pushed;
    int next = 0;
    auto push = [&](int n) {
        for (int i = 0; i < n; ++i, ++next) {
            pushed.push_back(Addr(0x1000 + 64 * next));
            sq.push(request(next));
        }
    };
    auto open = [&] {
        gate.open = true;
        q.noteRelease(gate);
    };
    // Ten requests wait behind a refusal and drain: the queue's head
    // is now slot 10 of the first 16.
    q.schedule(0, EventQueue::kPrioCpu, [&] { push(10); });
    q.schedule(5, open);
    // Forty more wait: they wrap past slot 15, and the ring doubles
    // twice while wrapped.
    q.schedule(10, [&] {
        gate.open = false;
        push(40);
        EXPECT_EQ(sq.size(), 40u);
    });
    q.schedule(20, open);
    q.runUntil();
    EXPECT_TRUE(sq.empty());
    EXPECT_EQ(gate.accepted, pushed);
}

namespace {

/**
 * A cache-like device. Every accepted request holds one of
 * `capacity` slots through a two-tick lookup; a lookup for a block
 * not yet in flight puts it in flight and keeps the slot until the
 * fill. With every slot held, a request for a block in flight is
 * still accepted (it coalesces). certainlyRefuses() reads a log of
 * the blocks put in flight, as Cache reads its release log.
 */
struct Coalescer : MemDevice {
    EventQueue &q;
    unsigned capacity;
    unsigned busy = 0;
    std::vector<Addr> inFlight;
    /** Blocks put in flight, in order. */
    std::vector<Addr> released;
    unsigned fills = 0;
    uint64_t rejects = 0;
    unsigned coalescedWhileFull = 0;
    std::vector<std::pair<Tick, Addr>> accepted;

    Coalescer(EventQueue &eq, unsigned cap) : q(eq), capacity(cap) {}

    bool
    flying(Addr blk) const
    {
        return std::find(inFlight.begin(), inFlight.end(), blk) !=
               inFlight.end();
    }

    bool
    recvRequest(PacketPtr pkt) override
    {
        const Addr blk = pkt->addr;
        if (busy >= capacity) {
            if (!flying(blk)) {
                ++rejects;
                return false;
            }
            ++coalescedWhileFull;
        }
        ++busy;
        accepted.emplace_back(q.curTick(), blk);
        delete pkt;
        q.schedule(q.curTick() + 2, [this, blk] { lookup(blk); });
        return true;
    }

    void
    lookup(Addr blk)
    {
        if (flying(blk)) {
            --busy; // joins the fill already on its way
            q.noteRelease(*this);
            return;
        }
        inFlight.push_back(blk);
        released.push_back(blk);
        q.noteRelease(*this);
        const Tick hold = 5 + 3 * (++fills % 4);
        q.schedule(q.curTick() + hold, EventQueue::kPrioResponse,
                   [this, blk] {
                       inFlight.erase(std::find(inFlight.begin(),
                                                inFlight.end(), blk));
                       --busy;
                       q.noteRelease(*this);
                   });
    }

    uint64_t refusalMark() const override { return released.size(); }

    bool
    certainlyRefuses(const Packet &pkt, uint64_t &mark) const override
    {
        if (busy < capacity)
            return false;
        for (size_t i = mark; i < released.size(); ++i) {
            if (released[i] == pkt.addr)
                return false;
        }
        mark = released.size();
        return true;
    }

    void creditRejects(uint64_t n) override { rejects += n; }
    void functionalAccess(Packet &) override {}
    std::string deviceName() const override { return "coalescer"; }
};

/** The polling reference for one sender: re-asks every cycle. */
struct Poller {
    Poller(EventQueue &eq, MemDevice &d) : q(eq), dev(d) {}

    EventQueue &q;
    MemDevice &dev;
    std::deque<PacketPtr> pending;
    bool waiting = false;

    void
    push(PacketPtr pkt)
    {
        pending.push_back(pkt);
        if (!waiting)
            poll();
    }

    void
    poll()
    {
        waiting = false;
        while (!pending.empty() && dev.recvRequest(pending.front()))
            pending.pop_front();
        if (!pending.empty()) {
            waiting = true;
            q.schedule(q.curTick() + 1, [this] { poll(); });
        }
    }
};

/** Sender s's i-th request: four senders over four blocks, so
 *  parked heads share blocks. */
PacketPtr
sharedBlockRequest(int s, int i)
{
    return request((s + i * (s + 1)) % 4);
}

} // namespace

TEST(RetryLane, BlockReleasesWakeCoalescingSendsLikePolling)
{
    const int kSenders = 4, kBurst = 6;
    auto traffic = [&](EventQueue &q, auto &senders) {
        for (Tick t : {Tick(0), Tick(9)}) {
            q.schedule(t, EventQueue::kPrioCpu, [&senders] {
                for (int s = 0; s < kSenders; ++s)
                    for (int i = 0; i < kBurst; ++i)
                        senders[s]->push(sharedBlockRequest(s, i));
            });
        }
    };

    // Reference: every sender re-asks the device every cycle.
    EventQueue pq;
    Coalescer polled(pq, 2);
    std::vector<std::unique_ptr<Poller>> pollers;
    for (int s = 0; s < kSenders; ++s)
        pollers.push_back(std::make_unique<Poller>(pq, polled));
    traffic(pq, pollers);
    pq.runUntil();

    // The same traffic through SendQueues parked in the lane.
    EventQueue lq;
    Coalescer parked(lq, 2);
    static const std::string kNames[] = {"s0", "s1", "s2", "s3"};
    std::vector<std::unique_ptr<SendQueue>> queues;
    for (int s = 0; s < kSenders; ++s) {
        queues.push_back(
            std::make_unique<SendQueue>(lq, kNames[s], nullptr));
        queues.back()->setDevice(&parked);
    }
    traffic(lq, queues);
    lq.runUntil();

    EXPECT_EQ(parked.accepted.size(), size_t(2 * kSenders * kBurst));
    EXPECT_EQ(parked.accepted, polled.accepted);
    EXPECT_EQ(parked.rejects, polled.rejects);
    EXPECT_GT(polled.coalescedWhileFull, 0u)
        << "the traffic must coalesce onto blocks released while full";
    EXPECT_EQ(parked.coalescedWhileFull, polled.coalescedWhileFull);
    EXPECT_EQ(lq.numParked(), 0u);
    EXPECT_EQ(parked.retryWaiters(), 0u);
    EXPECT_LT(lq.numPassReruns(), lq.numPassExamined())
        << "certain refusals keep their slots without re-running";
    EXPECT_LT(lq.numExecuted(), pq.numExecuted());
}


// ---------------------------------------------------------------------
// The calendar wheel against one ordered map of every event
// ---------------------------------------------------------------------

namespace {

/** The order the wheel must keep: one map keyed by (tick, class,
 *  scheduling sequence), the key of the binary heap it replaced. */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, EventQueue::Priority prio, std::function<void()> fn)
    {
        ASSERT_GE(when, cur_);
        events_.emplace(std::make_tuple(when, int(prio), seq_++),
                        std::move(fn));
    }

    uint64_t
    runUntil(Tick limit = kMaxTick)
    {
        uint64_t executed = 0;
        while (!events_.empty() && nextTick() <= limit) {
            auto first = events_.begin();
            cur_ = std::get<0>(first->first);
            std::function<void()> fn = std::move(first->second);
            events_.erase(first);
            fn();
            ++executed;
        }
        return executed;
    }

    uint64_t
    runOneTick()
    {
        return events_.empty() ? 0 : runUntil(nextTick());
    }

    void setCurTick(Tick to) { cur_ = to; }

    void
    reset()
    {
        events_.clear();
        cur_ = 0;
    }

    Tick curTick() const { return cur_; }
    bool empty() const { return events_.empty(); }
    size_t numPending() const { return events_.size(); }
    Tick nextTick() const { return std::get<0>(events_.begin()->first); }

  private:
    std::map<std::tuple<Tick, int, uint64_t>, std::function<void()>>
        events_;
    Tick cur_ = 0;
    uint64_t seq_ = 0;
};

constexpr Tick kH = EventQueue::kWheelTicks;

/** splitmix64: a run's callbacks draw from their event's id, so both
 *  queues see the same children for the same id. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A delay from 0 to three horizons, weighted toward the edges:
 *  the current tick, one tick, and either side of the horizon. */
Tick
drawDelay(uint64_t r)
{
    switch (r % 8) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2 + (r >> 8) % 16;
      case 3: return kH - 3 + (r >> 8) % 6; // kH-3 .. kH+2
      case 4: return 2 * kH - 1 + (r >> 8) % 3;
      default: return (r >> 8) % (3 * kH + 1);
    }
}

/**
 * Schedules identified events on Q and logs the ids it runs. An
 * event spawns children drawn from its id: same-tick ones in any
 * class (a lower one included), and ones past the horizon.
 */
template <class Q>
struct Scheduler {
    Q q;
    std::vector<uint64_t> ran;
    uint64_t nextId = 0;

    void
    add(Tick when, EventQueue::Priority prio)
    {
        const uint64_t id = nextId++;
        q.schedule(when, prio, [this, id, prio] { fire(id, prio); });
    }

    void
    fire(uint64_t id, EventQueue::Priority prio)
    {
        ran.push_back(id);
        uint64_t r = mix(id);
        // 0, 1 or 2 children, 0.9 on average: the population
        // drifts down between the stream's own schedules.
        const unsigned kids = r % 10 < 3 ? 0 : r % 10 < 8 ? 1 : 2;
        for (unsigned k = 0; k < kids; ++k) {
            r = mix(r);
            const Tick delay = drawDelay(r >> 4);
            auto cls =
                EventQueue::Priority((r >> 2) % EventQueue::kNumClasses);
            // The retry lane's premise: a retry-class event puts
            // nothing ahead of its own slot at its own tick.
            if (delay == 0 && prio == EventQueue::kPrioRetry &&
                cls <= EventQueue::kPrioRetry)
                cls = EventQueue::kPrioCpu;
            add(q.curTick() + delay, cls);
        }
    }
};

/** Run one seeded stream of steps through the wheel and the
 *  reference, comparing them after every step. */
void
runDifferential(uint64_t seed, int steps)
{
    Scheduler<EventQueue> wheel;
    Scheduler<ReferenceQueue> ref;
    std::mt19937_64 rng(seed);
    auto expectSame = [&](int step, const char *what) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                          << step << " (" << what << ")");
        ASSERT_EQ(wheel.ran, ref.ran);
        ASSERT_EQ(wheel.q.curTick(), ref.q.curTick());
        ASSERT_EQ(wheel.q.numPending(), ref.q.numPending());
        ASSERT_EQ(wheel.q.empty(), ref.q.empty());
        if (!ref.q.empty()) {
            ASSERT_EQ(wheel.q.nextTick(), ref.q.nextTick());
        }
    };
    for (int step = 0; step < steps; ++step) {
        const uint64_t r = rng();
        const char *what = "";
        switch (r % 16) {
          case 0: case 1: case 2: case 3: case 4: case 5: {
            what = "schedule";
            const unsigned n = 1 + (r >> 4) % 8;
            for (unsigned i = 0; i < n; ++i) {
                const uint64_t d = rng();
                const Tick when = ref.q.curTick() + drawDelay(d);
                const auto cls = EventQueue::Priority(
                    (d >> 2) % EventQueue::kNumClasses);
                wheel.add(when, cls);
                ref.add(when, cls);
            }
            break;
          }
          case 6: case 7: case 8: {
            what = "runOneTick";
            ASSERT_EQ(wheel.q.runOneTick(), ref.q.runOneTick());
            break;
          }
          case 9: case 10: case 11: {
            what = "runUntil";
            const Tick limit = ref.q.curTick() + (r >> 4) % (2 * kH);
            ASSERT_EQ(wheel.q.runUntil(limit), ref.q.runUntil(limit));
            break;
          }
          case 12: case 13: {
            // Up to three horizons, never past a pending event.
            what = "setCurTick";
            Tick to = ref.q.curTick() + (r >> 4) % (3 * kH + 1);
            if (!ref.q.empty())
                to = std::min(to, ref.q.nextTick());
            wheel.q.setCurTick(to);
            ref.q.setCurTick(to);
            break;
          }
          case 14: {
            what = "drain";
            ASSERT_EQ(wheel.q.runUntil(), ref.q.runUntil());
            break;
          }
          default: {
            if ((r >> 4) % 8 != 0)
                continue;
            what = "reset";
            wheel.q.reset();
            ref.q.reset();
            break;
          }
        }
        expectSame(step, what);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    wheel.q.runUntil();
    ref.q.runUntil();
    expectSame(steps, "final drain");
}

} // namespace

TEST(EventWheel, MatchesOneOrderedMapStepByStep)
{
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        runDifferential(seed, 1500);
        if (HasFatalFailure())
            return;
    }
}
