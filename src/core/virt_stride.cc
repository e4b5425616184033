#include "core/virt_stride.hh"

#include "util/bitfield.hh"

namespace pvsim {

namespace {

PvSetCodec
strideCodec(const VirtStrideParams &p)
{
    return PvSetCodec(p.assoc, p.tagBits,
                      VirtualizedStride::kPayloadBits);
}

} // anonymous namespace

VirtualizedStride::VirtualizedStride(PvProxy &proxy,
                                     const std::string &name,
                                     const VirtStrideParams &params,
                                     const PvTenantQos &qos)
    : VirtEngine(proxy, name, strideCodec(params), params.numSets,
                 qos),
      threshold_(params.threshold)
{
}

uint64_t
VirtualizedStride::pack(uint64_t block_low, int64_t stride,
                        unsigned confidence)
{
    uint64_t biased = uint64_t(stride + kStrideBias) &
                      mask(int(kStrideBits));
    return 1 | ((block_low & mask(int(kBlockLowBits))) << 1) |
           (biased << (1 + kBlockLowBits)) |
           (uint64_t(confidence & 0x3)
            << (1 + kBlockLowBits + kStrideBits));
}

uint64_t
VirtualizedStride::blockLowOf(uint64_t payload)
{
    return (payload >> 1) & mask(int(kBlockLowBits));
}

int64_t
VirtualizedStride::strideOf(uint64_t payload)
{
    return int64_t((payload >> (1 + kBlockLowBits)) &
                   mask(int(kStrideBits))) -
           kStrideBias;
}

unsigned
VirtualizedStride::confidenceOf(uint64_t payload)
{
    return unsigned(payload >> (1 + kBlockLowBits + kStrideBits)) &
           0x3;
}

void
VirtualizedStride::observe(Addr pc, Addr addr)
{
    uint64_t block = blockNumber(addr);
    uint64_t block_low = block & mask(int(kBlockLowBits));
    table().mutate(keyOf(pc), [block_low](bool found, uint64_t old) {
        if (!found)
            return pack(block_low, 0, 0);
        int64_t stride =
            int64_t(block_low) - int64_t(blockLowOf(old));
        if (stride == 0)
            return old; // same block: nothing new learned
        if (stride <= -kStrideBias || stride >= kStrideBias)
            return pack(block_low, 0, 0); // out of packing range
        unsigned conf = confidenceOf(old);
        if (stride == strideOf(old))
            conf = conf < 3 ? conf + 1 : 3;
        else
            conf = 0;
        return pack(block_low, stride, conf);
    });
}

void
VirtualizedStride::predict(Addr pc, PredictCallback cb)
{
    table().find(keyOf(pc),
                 [this, cb = std::move(cb)](bool found,
                                            uint64_t payload) {
        if (!found) {
            cb(false, 0);
            return;
        }
        int64_t stride = strideOf(payload);
        if (stride == 0 || confidenceOf(payload) < threshold_) {
            cb(false, 0);
            return;
        }
        // Only the low 28 block bits are stored: a predicted block
        // outside [0, 2^28) left the reconstructible window, so
        // report no confidence rather than a wrapped address.
        int64_t next_block = int64_t(blockLowOf(payload)) + stride;
        if (next_block < 0 ||
            uint64_t(next_block) > mask(int(kBlockLowBits))) {
            cb(false, 0);
            return;
        }
        cb(true, Addr(next_block) << kBlockShift);
    });
}

} // namespace pvsim
