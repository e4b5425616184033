/**
 * @file
 * Main memory: fixed-latency DRAM with a functional backing store
 * for data-carrying blocks (the PVTable lives here when its lines
 * are cold) and byte-accurate off-chip traffic accounting split by
 * address class (application vs. predictor data, paper Figure 8).
 */

#ifndef PVSIM_MEM_DRAM_HH
#define PVSIM_MEM_DRAM_HH

#include "mem/addr_map.hh"
#include "mem/dram_store.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"

namespace pvsim {

/** DRAM configuration. */
struct DramParams {
    std::string name = "dram";
    /** Request-to-response latency (paper Table 1: 400 cycles). */
    Cycles latency = 400;
    /**
     * Minimum spacing between successive transfers on the channel;
     * models finite bandwidth without a full scheduler. 0 disables.
     */
    Cycles serviceInterval = 4;
};

/** The memory controller + DRAM device. */
class Dram : public SimObject, public MemDevice
{
  public:
    Dram(SimContext &ctx, const DramParams &params,
         const AddrMap *addr_map = nullptr);

    // MemDevice
    bool recvRequest(PacketPtr pkt) override;
    void functionalAccess(Packet &pkt) override;
    std::string deviceName() const override { return name(); }

    /** Direct backing-store poke for tests and initialization. */
    void writeBlock(Addr block_addr, const Packet::Data &data);
    /** Read back a block; zeros if never written. */
    Packet::Data readBlock(Addr block_addr) const;
    /** True if the block was ever written with data. */
    bool hasBlock(Addr block_addr) const;

    // Off-chip traffic statistics (bytes).
    stats::Scalar readsApp;
    stats::Scalar readsPv;
    stats::Scalar writesApp;
    stats::Scalar writesPv;
    stats::Scalar readBytes;
    stats::Scalar writeBytes;

    uint64_t totalAccesses() const
    {
        return readsApp.value() + readsPv.value() +
               writesApp.value() + writesPv.value();
    }

  private:
    /** Shared request handling; returns true if a response is due. */
    bool handle(Packet &pkt);

    DramParams params_;
    const AddrMap *addrMap_;
    DramStore store_;
    Tick channelFreeAt_ = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_DRAM_HH
