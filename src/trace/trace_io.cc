#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace {

/** Records decoded per fread in the bulk reader (stack buffer). */
constexpr size_t kReadChunk = 256;

} // anonymous namespace

namespace pvsim {

namespace {

void
put64(uint8_t *buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[i] = uint8_t(v >> (8 * i));
}

/** The little-endian 64-bit field at buf, read with one load.
 *  Replay reads two per record; g++ merges a byte loop into one
 *  load at -O3 only, and this form halved a batched replay at -O2
 *  and -O0. */
uint64_t
get64(const uint8_t *buf)
{
    uint64_t v;
    std::memcpy(&v, buf, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

void
put32(uint8_t *buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf[i] = uint8_t(v >> (8 * i));
}

uint32_t
get32(const uint8_t *buf)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(buf[i]) << (8 * i);
    return v;
}

} // anonymous namespace

TraceFileWriter::TraceFileWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb")), path_(path)
{
    if (!file_)
        fatal("cannot open trace file '%s' for writing",
              path.c_str());
    uint8_t header[16] = {};
    put32(header, kTraceMagic);
    put32(header + 4, kTraceVersion);
    put64(header + 8, 0); // patched in close()
    if (std::fwrite(header, 1, sizeof(header), file_) !=
        sizeof(header))
        fatal("short write to trace file '%s'", path.c_str());
}

TraceFileWriter::~TraceFileWriter()
{
    if (!closed_)
        close();
}

void
TraceFileWriter::append(const TraceRecord &rec)
{
    pv_assert(!closed_, "append to closed trace file");
    uint8_t buf[kTraceRecordBytes] = {};
    put64(buf, rec.pc);
    put64(buf + 8, rec.addr);
    buf[16] = uint8_t(rec.gap & 0xff);
    buf[17] = uint8_t(rec.gap >> 8);
    buf[18] = uint8_t(rec.op);
    // The historical pad byte carries the branch-edge annotation;
    // legacy files hold 0 there, which is BranchEdge::None.
    buf[19] = uint8_t(rec.edge);
    if (std::fwrite(buf, 1, sizeof(buf), file_) != sizeof(buf))
        fatal("short write to trace file '%s'", path_.c_str());
    ++count_;
}

void
TraceFileWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    uint8_t cnt[8];
    put64(cnt, count_);
    std::fseek(file_, 8, SEEK_SET);
    if (std::fwrite(cnt, 1, sizeof(cnt), file_) != sizeof(cnt))
        fatal("cannot finalize trace file '%s'", path_.c_str());
    std::fclose(file_);
    file_ = nullptr;
}

TraceFileReader::TraceFileReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path)
{
    if (!file_)
        fatal("cannot open trace file '%s'", path.c_str());
    uint8_t header[16];
    if (std::fread(header, 1, sizeof(header), file_) !=
        sizeof(header))
        fatal("trace file '%s' too short", path.c_str());
    if (get32(header) != kTraceMagic)
        fatal("'%s' is not a pvsim trace (bad magic)", path.c_str());
    if (get32(header + 4) != kTraceVersion)
        fatal("trace '%s' has unsupported version %u", path.c_str(),
              get32(header + 4));
    count_ = get64(header + 8);
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

namespace {

/** Decode on-disk record `index` of `path` at buf into rec. */
inline void
decodeRecord(const uint8_t *buf, TraceRecord &rec, uint64_t index,
             const std::string &path)
{
    rec.pc = get64(buf);
    rec.addr = get64(buf + 8);
    rec.gap = uint16_t(buf[16] | (uint16_t(buf[17]) << 8));
    if (buf[18] > uint8_t(MemOp::Store))
        fatal("trace '%s' record %llu has op byte %u (0 load, 1 "
              "store)",
              path.c_str(), (unsigned long long)index, buf[18]);
    rec.op = MemOp(buf[18]);
    rec.edge = buf[19] <= uint8_t(BranchEdge::Ret)
                   ? BranchEdge(buf[19])
                   : BranchEdge::None;
}

} // anonymous namespace

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (read_ >= count_)
        return false;
    uint8_t buf[kTraceRecordBytes];
    if (std::fread(buf, 1, sizeof(buf), file_) != sizeof(buf))
        fatal("trace '%s' truncated at record %llu", path_.c_str(),
              (unsigned long long)read_);
    decodeRecord(buf, rec, read_, path_);
    ++read_;
    return true;
}

size_t
TraceFileReader::nextBatch(TraceRecord *out, size_t n)
{
    size_t produced = 0;
    uint8_t buf[kTraceRecordBytes * kReadChunk];
    while (produced < n && read_ < count_) {
        size_t want = size_t(std::min<uint64_t>(
            std::min<uint64_t>(n - produced, count_ - read_),
            kReadChunk));
        size_t bytes = want * kTraceRecordBytes;
        if (std::fread(buf, 1, bytes, file_) != bytes)
            fatal("trace '%s' truncated at record %llu",
                  path_.c_str(), (unsigned long long)read_);
        for (size_t i = 0; i < want; ++i)
            decodeRecord(buf + i * kTraceRecordBytes,
                         out[produced + i], read_ + i, path_);
        produced += want;
        read_ += want;
    }
    return produced;
}

void
TraceFileReader::reset()
{
    std::fseek(file_, 16, SEEK_SET);
    read_ = 0;
}

} // namespace pvsim
