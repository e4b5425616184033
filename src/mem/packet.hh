/**
 * @file
 * Memory request/response packets exchanged between cores, caches,
 * prefetchers, PVProxies and DRAM. A packet is created as a request,
 * travels down the hierarchy, and is turned into a response in place
 * (makeResponse()) before travelling back up. A packet does not say
 * whether it carries PV traffic: the hierarchy is oblivious to PV
 * data (paper Section 2.2), and the statistics that tell PVTable
 * addresses apart ask the AddrMap.
 *
 * Ownership follows gem5 convention: raw pointers, and the component
 * that completes a packet deletes it. Static live-count bookkeeping
 * lets tests assert leak-freedom.
 */

#ifndef PVSIM_MEM_PACKET_HH
#define PVSIM_MEM_PACKET_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "sim/types.hh"
#include "util/logging.hh"

namespace pvsim {

class MemClient;

/** Command carried by a packet. */
enum class MemCmd : uint8_t {
    ReadReq,     ///< demand load / instruction fetch (GetS)
    WriteReq,    ///< store miss with intent to modify (GetX)
    UpgradeReq,  ///< store hit on a non-writable block (GetX, no data)
    PrefetchReq, ///< non-binding read issued by a prefetcher
    Writeback,   ///< dirty block pushed down; carries data if any
    CleanEvict,  ///< clean-eviction notice keeping the directory exact
    ReadResp,
    WriteResp,
    UpgradeResp,
    PrefetchResp,
};

/** Printable command name. */
const char *memCmdName(MemCmd cmd);

/** One memory transaction. All addresses are physical. */
class Packet
{
  public:
    /** Block-sized optional payload. */
    using Data = std::array<uint8_t, kBlockBytes>;

    /**
     * Deleter returning payload buffers to the thread-local
     * PacketPool's data freelist instead of the heap (PV traffic
     * attaches a payload to most of its packets; without recycling
     * every fill and writeback churned a 64-byte heap allocation).
     */
    struct DataDeleter {
        void operator()(Data *d) const;
    };
    using DataPtr = std::unique_ptr<Data, DataDeleter>;

    Packet(MemCmd cmd, Addr addr, int core_id)
        : cmd(cmd), addr(addr), coreId(core_id)
    {
        ++liveCount_;
    }

    ~Packet() { --liveCount_; }

    Packet(const Packet &) = delete;
    Packet &operator=(const Packet &) = delete;

    MemCmd cmd;
    /** Block-aligned physical address of the transaction. */
    Addr addr;
    /** Requesting core, or kInvalidCore for non-core agents. */
    int coreId;
    /** PC of the triggering instruction (0 when not applicable). */
    Addr pc = 0;

    /** Set on a core's instruction fetches: the core tells their
     *  responses from its loads' by it. */
    bool isInstFetch = false;
    /** Set for prefetcher-generated requests. */
    bool isPrefetch = false;
    /**
     * Coherent requests participate in the L2 directory (L1 demand
     * and prefetch traffic). PV traffic is non-coherent: per-core
     * advisory data needs no sharer tracking (paper Section 3.2.2).
     */
    bool coherent = true;

    /** On responses: the block may be locally modified (M state). */
    bool grantsWritable = false;

    /** Client that should receive the response (timing mode). */
    MemClient *src = nullptr;
    /** Identity of the requesting cache at the L2 (directory slot). */
    int srcSlot = -1;

    /** Tick at which the request was first issued (latency stats). */
    Tick issueTick = 0;

    /** Optional 64-byte payload (allocated only for data-carrying
     *  transactions, i.e. PV reads/writebacks); pooled storage. */
    DataPtr data;

    /** Allocate (pool-recycled, if needed) and zero the payload. */
    Data &ensureData();

    bool hasData() const { return data != nullptr; }

    /** Copy payload bytes in from a block-sized buffer. */
    void
    setData(const uint8_t *bytes)
    {
        std::memcpy(ensureData().data(), bytes, kBlockBytes);
    }

    bool isWrite() const { return cmd == MemCmd::WriteReq; }
    bool isUpgrade() const { return cmd == MemCmd::UpgradeReq; }
    bool isPrefetchReq() const { return cmd == MemCmd::PrefetchReq; }
    bool isWriteback() const { return cmd == MemCmd::Writeback; }
    bool isCleanEvict() const { return cmd == MemCmd::CleanEvict; }

    bool
    isRequest() const
    {
        return cmd == MemCmd::ReadReq || cmd == MemCmd::WriteReq ||
               cmd == MemCmd::UpgradeReq ||
               cmd == MemCmd::PrefetchReq ||
               cmd == MemCmd::Writeback || cmd == MemCmd::CleanEvict;
    }

    bool isResponse() const { return !isRequest(); }

    /** The block must be returned in writable (M/E) state. */
    bool
    needsWritable() const
    {
        return cmd == MemCmd::WriteReq || cmd == MemCmd::UpgradeReq;
    }

    /** Turn this request into the matching response, in place. */
    void
    makeResponse()
    {
        switch (cmd) {
          case MemCmd::ReadReq:
            cmd = MemCmd::ReadResp;
            break;
          case MemCmd::WriteReq:
            cmd = MemCmd::WriteResp;
            break;
          case MemCmd::UpgradeReq:
            cmd = MemCmd::UpgradeResp;
            break;
          case MemCmd::PrefetchReq:
            cmd = MemCmd::PrefetchResp;
            break;
          default:
            panic("makeResponse on non-request packet (cmd %s)",
                  memCmdName(cmd));
        }
    }

    /** Live packet count, for leak assertions in tests. */
    static int64_t liveCount() { return liveCount_.load(); }

  private:
    static std::atomic<int64_t> liveCount_;
};

using PacketPtr = Packet *;

} // namespace pvsim

#endif // PVSIM_MEM_PACKET_HH
