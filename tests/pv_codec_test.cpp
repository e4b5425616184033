/**
 * @file
 * Tests for the PVTable packing codec and layout: the paper's
 * Figure 3a bit layout (11 x 43-bit entries per 64-byte line),
 * round-trip properties across geometries, the zero-means-invalid
 * convention, and Figure 3b address computation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/pv_codec.hh"
#include "core/pv_layout.hh"
#include "mem/addr_map.hh"
#include "util/random.hh"

using namespace pvsim;

TEST(PvSetCodec, PaperGeometryDimensions)
{
    // 11-bit tag + 32-bit pattern = 43 bits; 11 ways = 473 bits.
    PvSetCodec codec(11, 11, 32);
    EXPECT_EQ(codec.entryBits(), 43u);
    EXPECT_EQ(codec.usedBits(), 473u);
    EXPECT_EQ(codec.unusedBits(), 39u);
}

TEST(PvSetCodec, EncodeDecodeRoundTrip)
{
    PvSetCodec codec(11, 11, 32);
    PvSet in;
    in.numWays = 11;
    for (unsigned w = 0; w < 11; ++w) {
        in.ways[w].tag = (w * 37) & 0x7ff;
        in.ways[w].payload = 0x80000000u | (w + 1);
    }
    uint8_t line[kBlockBytes];
    codec.encode(in, line);
    PvSet out = codec.decode(line);
    ASSERT_EQ(out.numWays, 11u);
    for (unsigned w = 0; w < 11; ++w) {
        EXPECT_EQ(out.ways[w].tag, in.ways[w].tag) << "way " << w;
        EXPECT_EQ(out.ways[w].payload, in.ways[w].payload);
    }
}

TEST(PvSetCodec, ZeroLineDecodesAllInvalid)
{
    // A cold PVTable line (never written) arrives as zeros and must
    // decode to an empty set: the zero-payload-is-invalid rule.
    PvSetCodec codec(11, 11, 32);
    uint8_t line[kBlockBytes] = {};
    PvSet s = codec.decode(line);
    for (unsigned w = 0; w < 11; ++w)
        EXPECT_FALSE(s.ways[w].valid());
    EXPECT_EQ(s.findFree(), 0);
    EXPECT_EQ(s.findTag(0), -1) << "tag 0 with payload 0 is invalid";
}

TEST(PvSetCodec, UnusedTrailingBitsStayZero)
{
    PvSetCodec codec(11, 11, 32);
    PvSet in;
    in.numWays = 11;
    for (unsigned w = 0; w < 11; ++w) {
        in.ways[w].tag = 0x7ff;
        in.ways[w].payload = 0xffffffffu;
    }
    uint8_t line[kBlockBytes];
    codec.encode(in, line);
    // Bits [473, 512) must be zero: byte 59 upper bits and bytes
    // 60..63 entirely.
    BitSpan span(line, sizeof(line));
    EXPECT_EQ(span.read(473, 39), 0u);
}

TEST(PvSetCodec, RandomizedRoundTripAcrossGeometries)
{
    Rng rng(2024);
    struct Geom {
        unsigned ways, tag, payload;
    };
    const Geom geoms[] = {
        {11, 11, 32}, // the paper's PHT
        {8, 16, 46},  // the BTB extension
        {16, 0, 32},  // untagged (direct-indexed payloads)
        {4, 32, 57},  // extreme widths
        {1, 11, 32},
    };
    for (const auto &g : geoms) {
        PvSetCodec codec(g.ways, g.tag, g.payload);
        ASSERT_LE(codec.usedBits(), kBlockBytes * 8u);
        for (int iter = 0; iter < 200; ++iter) {
            PvSet in;
            in.numWays = g.ways;
            for (unsigned w = 0; w < g.ways; ++w) {
                in.ways[w].tag =
                    uint32_t(rng.next() & mask(int(g.tag)));
                in.ways[w].payload =
                    rng.next() & mask(int(g.payload));
            }
            uint8_t line[kBlockBytes];
            codec.encode(in, line);
            PvSet out = codec.decode(line);
            for (unsigned w = 0; w < g.ways; ++w) {
                ASSERT_EQ(out.ways[w].tag, in.ways[w].tag)
                    << "ways=" << g.ways << " tag=" << g.tag
                    << " payload=" << g.payload << " w=" << w;
                ASSERT_EQ(out.ways[w].payload, in.ways[w].payload);
            }
        }
    }
}

TEST(PvSetTest, FindTagAndFindFree)
{
    PvSet s;
    s.numWays = 4;
    s.ways[0] = {0x10, 0xAA};
    s.ways[1] = {0x20, 0};    // invalid
    s.ways[2] = {0x30, 0xCC};
    s.ways[3] = {0x10, 0};    // invalid despite matching tag
    EXPECT_EQ(s.findTag(0x10), 0);
    EXPECT_EQ(s.findTag(0x30), 2);
    EXPECT_EQ(s.findTag(0x99), -1);
    EXPECT_EQ(s.findFree(), 1);
}

// ---------------------------------------------------------------------
// In-place accessors against the decode()/encode() reference
// ---------------------------------------------------------------------

namespace {

/** The engines' packings, plus a tagless one. */
struct CodecGeom {
    const char *name;
    unsigned ways, tag, payload;
};

const CodecGeom kEngineGeoms[] = {
    {"pht", 11, 11, 32},
    {"btb", 8, 16, 46},
    {"agt", 4, 12, 54},
    {"tagless", 16, 0, 32},
};

/**
 * A random set that exercises the searches: tags drawn from a pool
 * smaller than the ways (so tags repeat, valid and invalid), and
 * about a third of the payloads zero (empty ways).
 */
PvSet
randomSet(Rng &rng, const CodecGeom &g)
{
    PvSet s;
    s.numWays = g.ways;
    for (unsigned w = 0; w < g.ways; ++w) {
        s.ways[w].tag = uint32_t(rng.below(g.ways / 2 + 1) &
                                 mask(int(g.tag)));
        s.ways[w].payload =
            rng.chance(0.33) ? 0 : rng.next() & mask(int(g.payload));
    }
    return s;
}

} // namespace

TEST(PvSetCodecInPlace, AccessorsAgreeWithDecode)
{
    Rng rng(7);
    for (const CodecGeom &g : kEngineGeoms) {
        PvSetCodec codec(g.ways, g.tag, g.payload);
        for (int iter = 0; iter < 500; ++iter) {
            // Half the lines are encoded sets, half raw random bytes
            // (whose trailing unused bits are not zero).
            uint8_t line[kBlockBytes];
            if (iter % 2 == 0) {
                codec.encode(randomSet(rng, g), line);
            } else {
                for (uint8_t &b : line)
                    b = uint8_t(rng.next());
            }
            const PvSet ref = codec.decode(line);
            for (unsigned w = 0; w < g.ways; ++w) {
                ASSERT_EQ(codec.tagAt(line, w), ref.ways[w].tag)
                    << g.name << " way " << w;
                ASSERT_EQ(codec.payloadAt(line, w), ref.ways[w].payload)
                    << g.name << " way " << w;
                ASSERT_EQ(codec.findTag(line, ref.ways[w].tag),
                          ref.findTag(ref.ways[w].tag))
                    << g.name << " tag of way " << w;
            }
            const uint32_t other = uint32_t(rng.next() & mask(int(g.tag)));
            ASSERT_EQ(codec.findTag(line, other), ref.findTag(other))
                << g.name;
            ASSERT_EQ(codec.findFree(line), ref.findFree()) << g.name;
        }
    }
}

TEST(PvSetCodecInPlace, WriteWayMatchesEncodeOfTheModifiedSet)
{
    Rng rng(8);
    for (const CodecGeom &g : kEngineGeoms) {
        PvSetCodec codec(g.ways, g.tag, g.payload);
        for (int iter = 0; iter < 500; ++iter) {
            PvSet set = randomSet(rng, g);
            uint8_t line[kBlockBytes];
            codec.encode(set, line);

            const unsigned w = unsigned(rng.below(g.ways));
            const uint32_t tag = uint32_t(rng.next() & mask(int(g.tag)));
            const uint64_t payload = rng.next() & mask(int(g.payload));
            codec.writeWay(line, w, tag, payload);
            set.ways[w] = {tag, payload};
            uint8_t want[kBlockBytes];
            codec.encode(set, want);
            ASSERT_EQ(std::memcmp(line, want, kBlockBytes), 0)
                << g.name << " way " << w;
        }
    }
}

TEST(BitSpanWindow, ReadAndWriteMatchBitByBitReference)
{
    // Every offset and width of a 64-byte line, including the fields
    // that end in its last byte, where the window is the line's last
    // eight bytes rather than the field's own.
    Rng rng(9);
    auto bit = [](const uint8_t *buf, size_t i) {
        return uint64_t(buf[i / 8] >> (i % 8)) & 1;
    };
    for (int iter = 0; iter < 4; ++iter) {
        uint8_t line[kBlockBytes];
        for (uint8_t &b : line)
            b = uint8_t(rng.next());
        BitSpan span(line, sizeof(line));
        unsigned ending_in_last_byte = 0;
        for (int nbits = 1; nbits <= 57; ++nbits) {
            for (size_t off = 0; off + size_t(nbits) <= 512; ++off) {
                uint64_t ref = 0;
                for (int i = 0; i < nbits; ++i)
                    ref |= bit(line, off + size_t(i)) << i;
                ASSERT_EQ(span.read(off, nbits), ref)
                    << "offset " << off << " width " << nbits;
                ending_in_last_byte += off + size_t(nbits) > 504;

                uint8_t copy[kBlockBytes];
                std::memcpy(copy, line, sizeof(copy));
                const uint64_t val = rng.next() & mask(nbits);
                BitSpan(copy, sizeof(copy)).write(off, nbits, val);
                for (size_t i = 0; i < 512; ++i) {
                    const bool in = i >= off && i < off + size_t(nbits);
                    const uint64_t want =
                        in ? (val >> (i - off)) & 1 : bit(line, i);
                    ASSERT_EQ(bit(copy, i), want)
                        << "write offset " << off << " width " << nbits
                        << " bit " << i;
                }
            }
        }
        // Eight end positions in the last byte, for each width.
        EXPECT_EQ(ending_in_last_byte, 57u * 8u);
    }
}

// ---------------------------------------------------------------------
// Layout (Figure 3b)
// ---------------------------------------------------------------------

TEST(PvTableLayout, AddressComputation)
{
    // Figure 3b: set index padded with six zeros, added to PVStart.
    PvTableLayout layout(0xB0000000, 1024);
    EXPECT_EQ(layout.setAddress(0), 0xB0000000u);
    EXPECT_EQ(layout.setAddress(1), 0xB0000040u);
    EXPECT_EQ(layout.setAddress(1023), 0xB0000000u + 1023u * 64u);
    EXPECT_EQ(layout.tableBytes(), 64u * 1024u);
}

TEST(PvTableLayout, SetOfInvertsSetAddress)
{
    PvTableLayout layout(0xB0000000, 512);
    for (unsigned s = 0; s < 512; s += 37)
        EXPECT_EQ(layout.setOf(layout.setAddress(s)), s);
    EXPECT_TRUE(layout.contains(0xB0000000));
    EXPECT_TRUE(layout.contains(0xB0000000 + 512 * 64 - 1));
    EXPECT_FALSE(layout.contains(0xB0000000 + 512 * 64));
    EXPECT_FALSE(layout.contains(0xAFFFFFFF));
}

TEST(PvTableLayout, IndexToSetUsesLowBits)
{
    PvTableLayout layout(0xB0000000, 1024);
    // The paper: 10 low bits of the 21-bit index select the set.
    EXPECT_EQ(layout.indexToSet(0), 0u);
    EXPECT_EQ(layout.indexToSet(1023), 1023u);
    EXPECT_EQ(layout.indexToSet(1024), 0u);
    EXPECT_EQ(layout.indexToSet((5u << 10) | 77u), 77u);
}

TEST(PvTableLayout, PerCoreTablesAreDisjoint)
{
    AddrMap amap(3ull * 1024 * 1024 * 1024, 4, 64 * 1024);
    PvTableLayout t0(amap.pvStart(0), 1024);
    PvTableLayout t1(amap.pvStart(1), 1024);
    for (unsigned s = 0; s < 1024; s += 101) {
        EXPECT_FALSE(t1.contains(t0.setAddress(s)));
        EXPECT_FALSE(t0.contains(t1.setAddress(s)));
        EXPECT_EQ(amap.classify(t0.setAddress(s)), AddrClass::Pv);
        EXPECT_EQ(amap.pvOwner(t0.setAddress(s)), 0);
        EXPECT_EQ(amap.pvOwner(t1.setAddress(s)), 1);
    }
}

TEST(AddrMapTest, ClassificationBoundaries)
{
    AddrMap amap(1ull << 30, 2, 64 * 1024);
    EXPECT_EQ(amap.classify(0), AddrClass::App);
    EXPECT_EQ(amap.classify(amap.pvBase() - 1), AddrClass::App);
    EXPECT_EQ(amap.classify(amap.pvBase()), AddrClass::Pv);
    EXPECT_EQ(amap.appLimit(), amap.pvBase());
    EXPECT_EQ(amap.pvStart(0), amap.pvBase());
    EXPECT_EQ(amap.pvStart(1), amap.pvBase() + 64 * 1024);
}
