#include "mem/dram.hh"

#include <algorithm>
#include <cstring>

#include "mem/packet_pool.hh"
#include "util/logging.hh"

namespace pvsim {

Dram::Dram(SimContext &ctx, const DramParams &params,
           const AddrMap *addr_map)
    : SimObject(ctx, nullptr, params.name),
      readsApp(this, "reads_app", "block reads, application data"),
      readsPv(this, "reads_pv", "block reads, PV data"),
      writesApp(this, "writes_app", "block writes, application data"),
      writesPv(this, "writes_pv", "block writes, PV data"),
      readBytes(this, "read_bytes", "bytes read from DRAM"),
      writeBytes(this, "write_bytes", "bytes written to DRAM"),
      params_(params), addrMap_(addr_map)
{
}

bool
Dram::handle(Packet &pkt)
{
    Addr baddr = blockAlign(pkt.addr);
    const bool is_pv =
        addrMap_ && addrMap_->classify(baddr) == AddrClass::Pv;

    switch (pkt.cmd) {
      case MemCmd::ReadReq:
      case MemCmd::WriteReq:
      case MemCmd::PrefetchReq: {
        // All fetches return the full block; WriteReq is a
        // fetch-with-intent (the actual store happens in the cache).
        if (is_pv)
            ++readsPv;
        else
            ++readsApp;
        readBytes += kBlockBytes;
        if (const uint8_t *bytes = store_.find(baddr))
            pkt.setData(bytes);
        pkt.grantsWritable = true;
        pkt.makeResponse();
        return true;
      }

      case MemCmd::UpgradeReq:
        // Memory owns everything it holds; grant silently.
        pkt.grantsWritable = true;
        pkt.makeResponse();
        return true;

      case MemCmd::Writeback: {
        if (is_pv)
            ++writesPv;
        else
            ++writesApp;
        writeBytes += kBlockBytes;
        if (pkt.hasData())
            std::memcpy(store_.ensure(baddr), pkt.data->data(),
                        kBlockBytes);
        return false; // consumed, no response
      }

      case MemCmd::CleanEvict:
        return false; // metadata-only, nothing to do

      default:
        panic("dram received unexpected cmd %s", memCmdName(pkt.cmd));
    }
}

bool
Dram::recvRequest(PacketPtr pkt)
{
    pv_assert(isTiming(), "recvRequest in functional mode");
    bool respond = handle(*pkt);
    if (!respond) {
        freePacket(pkt);
        return true;
    }

    Tick start = std::max(curTick(), channelFreeAt_);
    if (params_.serviceInterval > 0)
        channelFreeAt_ = start + params_.serviceInterval;
    Tick done = start + params_.latency;
    MemClient *dst = pkt->src;
    pv_assert(dst != nullptr, "dram response with no source");
    ctx().events().schedule(done, EventQueue::kPrioResponse,
                            [dst, pkt] { dst->recvResponse(pkt); });
    return true;
}

void
Dram::functionalAccess(Packet &pkt)
{
    handle(pkt);
}

void
Dram::writeBlock(Addr block_addr, const Packet::Data &data)
{
    Addr baddr = blockAlign(block_addr);
    std::memcpy(store_.ensure(baddr), data.data(), kBlockBytes);
}

Packet::Data
Dram::readBlock(Addr block_addr) const
{
    Packet::Data out;
    Addr baddr = blockAlign(block_addr);
    if (const uint8_t *bytes = store_.find(baddr))
        std::memcpy(out.data(), bytes, kBlockBytes);
    else
        out.fill(0);
    return out;
}

bool
Dram::hasBlock(Addr block_addr) const
{
    Addr baddr = blockAlign(block_addr);
    return store_.has(baddr);
}

} // namespace pvsim
