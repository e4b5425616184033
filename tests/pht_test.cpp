/**
 * @file
 * Tests for the dedicated Pattern History Tables: key construction,
 * set-associative behaviour (LRU, update-in-place, conflict
 * eviction), infinite table, and the paper's Table 3 storage model.
 */

#include <gtest/gtest.h>

#include "prefetch/pht.hh"
#include "pv_test_ops.hh"

using namespace pvsim;

namespace {

/** Synchronous lookup helper. */
bool
probe(PatternHistoryTable &pht, PhtKey key, SpatialPattern &out)
{
    bool found = false;
    SpatialPattern pat = 0;
    lookup(pht, key, [&](bool f, SpatialPattern p) {
        found = f;
        pat = p;
    });
    out = pat;
    return found;
}

} // namespace

TEST(PhtKeyTest, Composition)
{
    // 16 PC bits from bit 2, concatenated with the 5-bit offset.
    PhtKey k = makePhtKey(0x40001234, 7);
    EXPECT_EQ(k & 0x1fu, 7u);
    EXPECT_EQ((k >> 5) & 0xffffu, (0x40001234u >> 2) & 0xffffu);
    EXPECT_LT(k, 1u << kPhtKeyBits);
}

TEST(PhtKeyTest, DistinctOffsetsDistinctKeys)
{
    EXPECT_NE(makePhtKey(0x1000, 3), makePhtKey(0x1000, 4));
    EXPECT_NE(makePhtKey(0x1000, 3), makePhtKey(0x1004, 3));
}

TEST(InfinitePhtTest, StoresEverything)
{
    InfinitePht pht;
    for (uint32_t i = 0; i < 50000; ++i)
        pht.insert(i % (1u << kPhtKeyBits), i | 1);
    EXPECT_GT(pht.size(), 40000u);
    SpatialPattern p;
    EXPECT_TRUE(probe(pht, 17, p));
}

TEST(InfinitePhtTest, MissReportsNotFound)
{
    InfinitePht pht;
    SpatialPattern p = 123;
    EXPECT_FALSE(probe(pht, 42, p));
    EXPECT_EQ(p, 0u);
}

TEST(SetAssocPhtTest, InsertLookupRoundTrip)
{
    SetAssocPht pht({16, 4});
    pht.insert(0x111, 0xdeadbeef);
    SpatialPattern p;
    ASSERT_TRUE(probe(pht, 0x111, p));
    EXPECT_EQ(p, 0xdeadbeefu);
    EXPECT_FALSE(probe(pht, 0x112, p));
}

TEST(SetAssocPhtTest, UpdateInPlace)
{
    SetAssocPht pht({16, 2});
    pht.insert(0x5, 0x1);
    pht.insert(0x5, 0x2);
    SpatialPattern p;
    ASSERT_TRUE(probe(pht, 0x5, p));
    EXPECT_EQ(p, 0x2u);
}

TEST(SetAssocPhtTest, ConflictEvictsLru)
{
    SetAssocPht pht({4, 2}); // keys with key%4 equal collide
    PhtKey a = 0, b = 4, c = 8; // all map to set 0
    pht.insert(a, 0xA);
    pht.insert(b, 0xB);
    SpatialPattern p;
    probe(pht, a, p);   // touch a; b becomes LRU
    pht.insert(c, 0xC); // evicts b
    EXPECT_TRUE(probe(pht, a, p));
    EXPECT_FALSE(probe(pht, b, p));
    EXPECT_TRUE(probe(pht, c, p));
}

TEST(SetAssocPhtTest, SetsIsolateKeys)
{
    SetAssocPht pht({4, 1});
    pht.insert(0, 0xA0);
    pht.insert(1, 0xA1);
    pht.insert(2, 0xA2);
    pht.insert(3, 0xA3);
    SpatialPattern p;
    for (PhtKey k = 0; k < 4; ++k) {
        ASSERT_TRUE(probe(pht, k, p));
        EXPECT_EQ(p, 0xA0u + k);
    }
}

// ---------------------------------------------------------------------
// Table 3 storage model
// ---------------------------------------------------------------------

TEST(PhtGeometryTest, PaperTable3StorageValues)
{
    // Paper Table 3 (tags + patterns):
    //   1K-16: 22KB tags + 64KB data = 86KB        (32b patterns)
    //   1K-11: 15.125KB + 44KB = 59.125KB          (32b patterns)
    //   16-11: 374B tags (matches 17-bit tags)
    //   8-11:  198B tags (matches 18-bit tags)
    // The paper's pattern column for the small tables implies 40
    // bits per pattern, inconsistent with its own 1K rows; this
    // model uses 32-bit patterns throughout.
    PhtGeometry g1k16{1024, 16};
    EXPECT_EQ(g1k16.tagBits(), 11u);
    EXPECT_EQ(g1k16.storageBits(), 86ull * 1024 * 8);

    PhtGeometry g1k11{1024, 11};
    EXPECT_DOUBLE_EQ(g1k11.storageBits() / 8.0 / 1024.0, 59.125);

    PhtGeometry g16{16, 11};
    EXPECT_EQ(g16.tagBits(), 17u);
    EXPECT_EQ(g16.storageBits() / 8, uint64_t(374 + 704));

    PhtGeometry g8{8, 11};
    EXPECT_EQ(g8.tagBits(), 18u);
    EXPECT_EQ(g8.storageBits() / 8, uint64_t(198 + 352));
}

TEST(PhtGeometryTest, LabelsMatchPaperNotation)
{
    EXPECT_EQ((PhtGeometry{1024, 16}.label()), "1K-16a");
    EXPECT_EQ((PhtGeometry{1024, 11}.label()), "1K-11a");
    EXPECT_EQ((PhtGeometry{16, 11}.label()), "16-11a");
    EXPECT_EQ((PhtGeometry{512, 11}.label()), "512-11a");
}

TEST(PhtGeometryTest, EntriesAndTagScaling)
{
    PhtGeometry g{1024, 11};
    EXPECT_EQ(g.entries(), 11264u);
    // Fewer sets -> more tag bits per entry.
    EXPECT_GT((PhtGeometry{8, 11}.tagBits()),
              (PhtGeometry{1024, 11}.tagBits()));
}
