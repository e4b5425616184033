#include "mem/packet.hh"

#include "mem/packet_pool.hh"

namespace pvsim {

std::atomic<int64_t> Packet::liveCount_{0};

void
Packet::DataDeleter::operator()(Data *d) const
{
    PacketPool::local().releaseData(d);
}

Packet::Data &
Packet::ensureData()
{
    if (!data)
        data.reset(PacketPool::local().allocData());
    return *data;
}

const char *
memCmdName(MemCmd cmd)
{
    switch (cmd) {
      case MemCmd::ReadReq: return "ReadReq";
      case MemCmd::WriteReq: return "WriteReq";
      case MemCmd::UpgradeReq: return "UpgradeReq";
      case MemCmd::PrefetchReq: return "PrefetchReq";
      case MemCmd::Writeback: return "Writeback";
      case MemCmd::CleanEvict: return "CleanEvict";
      case MemCmd::ReadResp: return "ReadResp";
      case MemCmd::WriteResp: return "WriteResp";
      case MemCmd::UpgradeResp: return "UpgradeResp";
      case MemCmd::PrefetchResp: return "PrefetchResp";
    }
    return "UnknownCmd";
}

} // namespace pvsim
