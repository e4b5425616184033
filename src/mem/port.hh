/**
 * @file
 * Interfaces between memory-system components.
 *
 * A MemDevice accepts requests (a cache seen from above, or DRAM).
 * A MemClient receives responses and coherence actions (a cache seen
 * from below, a core, or a PVProxy). A Cache implements both. A
 * SendQueue carries a sender's requests to a device that may refuse
 * them.
 */

#ifndef PVSIM_MEM_PORT_HH
#define PVSIM_MEM_PORT_HH

#include <string>
#include <vector>

#include "mem/packet.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pvsim {

/** Upstream endpoint: receives responses and coherence messages. */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** A response for a request this client sent (timing mode). */
    virtual void recvResponse(PacketPtr pkt) = 0;

    /**
     * Coherence: drop the block (back-invalidation from an inclusive
     * lower level, or a remote store). Default: nothing cached above.
     */
    virtual void recvInvalidate(Addr /*block_addr*/) {}

    /**
     * Coherence: lose write permission but keep the (clean) block.
     * Any locally dirty data is considered merged into the lower
     * level by the caller.
     */
    virtual void recvDowngrade(Addr /*block_addr*/) {}

    /** Name for debugging. */
    virtual std::string clientName() const = 0;
};

/**
 * Downstream endpoint: accepts requests.
 *
 * Retry contract (timing mode). A sender whose request the device
 * refused parks a retry on the device (it is the Refuser the retry
 * lane counts waiters on; see sim/event_queue.hh). In return the
 * device calls EventQueue::noteRelease(*this) at every change of
 * its state that can turn a refusal into an acceptance. It may also
 * answer certainlyRefuses() so that a woken sender can stay parked
 * without re-asking.
 */
class MemDevice : public Refuser
{
  public:
    virtual ~MemDevice() = default;

    /**
     * Timing mode: try to accept a request. Returns false if the
     * device is structurally blocked (MSHRs/write buffer full); the
     * caller keeps ownership and must retry later. On true, the
     * device owns the packet until it responds or consumes it.
     */
    virtual bool recvRequest(PacketPtr pkt) = 0;

    /**
     * Right after recvRequest() returned false: a mark of the
     * device's state for certainlyRefuses() to start from.
     */
    virtual uint64_t refusalMark() const { return 0; }

    /**
     * Without side effects on the device, and never by a tag
     * lookup: true only if recvRequest(pkt) would certainly be
     * refused now, given that the device refused pkt when `mark`
     * was taken and every answer since was true. On true, `mark`
     * moves up to now. False when unsure, which is always safe:
     * the sender then re-asks. Default: unsure.
     */
    virtual bool
    certainlyRefuses(const Packet & /*pkt*/, uint64_t & /*mark*/) const
    {
        return false;
    }

    /**
     * Count n refusals a parked sender did not ask for: the
     * once-per-cycle re-attempts it skipped while waiting for a
     * release (see SendQueue). Default: the device keeps no count.
     */
    virtual void creditRejects(uint64_t /*n*/) {}

    /**
     * Functional mode: perform the access fully and synchronously.
     * The packet is completed (turned into a response) in place; the
     * caller keeps ownership. All state transitions (fills,
     * evictions, writebacks, invalidations) happen as in timing
     * mode, with zero latency.
     */
    virtual void functionalAccess(Packet &pkt) = 0;

    virtual std::string deviceName() const = 0;
};

/**
 * A sender's timing-mode requests toward one MemDevice, sent in
 * order. When the device refuses the head, the queue parks one drain
 * on the device in the event queue's retry lane (event_queue.hh) and
 * sends nothing until a pass resumes it. A pass first asks the
 * device whether the head is certainly still refused; if so the
 * drain stays parked without re-asking. A resumed drain first
 * credits the device with the refusals of the cycles it skipped, so
 * the device counts exactly what a sender re-asking every cycle
 * would have cost it. When a full queue makes its owner refuse
 * requests, every pop is a release at the owner.
 *
 * The packets sit in a ring of power-of-two size that doubles when
 * full and never shrinks, so a warm queue allocates nothing.
 */
class SendQueue
{
  public:
    /** `owner` names the sender in diagnostics; it must outlive
     *  the queue. `releases` is the owner as a device whose
     *  acceptance depends on this queue's depth, or nullptr. */
    SendQueue(EventQueue &eq, const std::string &owner,
              const Refuser *releases)
        : eq_(eq), owner_(owner), releases_(releases)
    {}

    /** A parked drain holds this queue's address. */
    SendQueue(const SendQueue &) = delete;
    SendQueue &operator=(const SendQueue &) = delete;

    void setDevice(MemDevice *dev) { dev_ = dev; }

    /** Queue pkt behind the others and send what the device takes. */
    void
    push(PacketPtr pkt)
    {
        if (size_ == ring_.size())
            grow();
        ring_[(head_ + size_) & (ring_.size() - 1)] = pkt;
        ++size_;
        if (!parked_)
            drain();
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Resumed drains whose first request was refused again: a
     *  wake-up that bought nothing. */
    uint64_t refusedResumes() const { return refusedResumes_; }

  private:
    /** Send until empty or refused; returns the packets sent. */
    size_t
    drain()
    {
        size_t sent = 0;
        while (size_ != 0) {
            if (!dev_->recvRequest(ring_[head_])) {
                park();
                break;
            }
            head_ = (head_ + 1) & (ring_.size() - 1);
            --size_;
            ++sent;
            if (releases_)
                eq_.noteRelease(*releases_);
        }
        return sent;
    }

    void
    park()
    {
        parked_ = true;
        refusedAt_ = eq_.curTick();
        mark_ = dev_->refusalMark();
        eq_.park(owner_, *dev_, [this] { return resume(); });
    }

    /** A pass's attempt: false while the head is certainly still
     *  refused (the drain keeps its lane slot). */
    bool
    resume()
    {
        if (dev_->certainlyRefuses(*ring_[head_], mark_))
            return false;
        parked_ = false;
        dev_->creditRejects(eq_.curTick() - refusedAt_ - 1);
        if (drain() == 0)
            ++refusedResumes_;
        return true;
    }

    /** Double the ring (to kMinSlots from empty), moving the queued
     *  packets to its front in order. */
    void
    grow()
    {
        std::vector<PacketPtr> bigger(
            ring_.empty() ? kMinSlots : 2 * ring_.size());
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
        ring_.swap(bigger);
        head_ = 0;
    }

    static constexpr size_t kMinSlots = 16;

    EventQueue &eq_;
    const std::string &owner_;
    const Refuser *releases_;
    MemDevice *dev_ = nullptr;
    /** The queue is ring_[head_], ring_[head_ + 1], ... (mod the
     *  ring's size), size_ packets long. */
    std::vector<PacketPtr> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
    /** A drain waits in the retry lane since refusedAt_. */
    bool parked_ = false;
    Tick refusedAt_ = 0;
    /** The device's mark for the parked head (certainlyRefuses). */
    uint64_t mark_ = 0;
    uint64_t refusedResumes_ = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_PORT_HH
