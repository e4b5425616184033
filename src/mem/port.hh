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

#include <deque>
#include <string>

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

/** Downstream endpoint: accepts requests. */
class MemDevice
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
 * in the event queue's retry lane (event_queue.hh) and sends nothing
 * until a pass resumes it. The resumed drain first credits the
 * device with the refusals of the cycles it skipped, so the device
 * counts exactly what a sender re-asking every cycle would have
 * cost it. Every pop notes a release, since a sender's full queue is
 * itself a reason for that sender to refuse requests.
 */
class SendQueue
{
  public:
    /** `owner` names the sender in diagnostics; it must outlive
     *  the queue. */
    SendQueue(EventQueue &eq, const std::string &owner)
        : eq_(eq), owner_(owner)
    {}

    /** A parked drain holds this queue's address. */
    SendQueue(const SendQueue &) = delete;
    SendQueue &operator=(const SendQueue &) = delete;

    void setDevice(MemDevice *dev) { dev_ = dev; }

    /** Queue pkt behind the others and send what the device takes. */
    void
    push(PacketPtr pkt)
    {
        q_.push_back(pkt);
        if (!parked_)
            drain();
    }

    size_t size() const { return q_.size(); }
    bool empty() const { return q_.empty(); }

  private:
    void
    drain()
    {
        while (!q_.empty()) {
            if (!dev_->recvRequest(q_.front())) {
                parked_ = true;
                refusedAt_ = eq_.curTick();
                eq_.park(owner_, [this] {
                    parked_ = false;
                    dev_->creditRejects(eq_.curTick() - refusedAt_ - 1);
                    drain();
                });
                return;
            }
            q_.pop_front();
            eq_.noteRelease();
        }
    }

    EventQueue &eq_;
    const std::string &owner_;
    MemDevice *dev_ = nullptr;
    std::deque<PacketPtr> q_;
    /** A drain waits in the retry lane since refusedAt_. */
    bool parked_ = false;
    Tick refusedAt_ = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_PORT_HH
