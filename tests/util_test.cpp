/**
 * @file
 * Unit and property tests for the utility substrate: integer math,
 * bitfield extraction, the BitSpan packer (the PVTable codec
 * primitive), deterministic RNG, Zipf sampling, and CLI parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/args.hh"
#include "util/bitfield.hh"
#include "util/intmath.hh"
#include "util/random.hh"

using namespace pvsim;

// ---------------------------------------------------------------------
// intmath
// ---------------------------------------------------------------------

TEST(IntMath, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(IntMath, FloorAndCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(3), 1);
    EXPECT_EQ(floorLog2(1024), 10);
    EXPECT_EQ(ceilLog2(1024), 10);
    EXPECT_EQ(ceilLog2(1025), 11);
    EXPECT_EQ(ceilLog2(1), 0);
}

TEST(IntMath, DivideCeilAndAlign)
{
    EXPECT_EQ(divideCeil(7, 2), 4u);
    EXPECT_EQ(divideCeil(8, 2), 4u);
    EXPECT_EQ(divideCeil(1, 64), 1u);
    EXPECT_EQ(alignDown(127, 64), 64u);
    EXPECT_EQ(alignUp(127, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
}

// ---------------------------------------------------------------------
// bitfield
// ---------------------------------------------------------------------

TEST(Bitfield, MaskAndBits)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(5), 0x1fu);
    EXPECT_EQ(mask(64), ~0ull);
    EXPECT_EQ(bits(0xabcd, 7, 4), 0xcu);
    EXPECT_EQ(bits(0xabcd, 3), 1u);
    EXPECT_EQ(insertBits(0, 7, 4, 0xf), 0xf0u);
    EXPECT_EQ(insertBits(0xff, 3, 0, 0), 0xf0u);
}

TEST(Bitfield, PopCount)
{
    EXPECT_EQ(popCount(0), 0);
    EXPECT_EQ(popCount(0xff), 8);
    EXPECT_EQ(popCount(~0ull), 64);
}

TEST(BitSpan, SingleFieldRoundTrip)
{
    uint8_t buf[64] = {};
    BitSpan span(buf, sizeof(buf));
    span.write(3, 11, 0x5a5);
    EXPECT_EQ(span.read(3, 11), 0x5a5u);
    // Adjacent bits untouched.
    EXPECT_EQ(span.read(0, 3), 0u);
    EXPECT_EQ(span.read(14, 8), 0u);
}

TEST(BitSpan, PaperGeometry43BitEntries)
{
    // 11 entries of 43 bits = 473 bits in a 64-byte line (Fig. 3a).
    uint8_t line[64] = {};
    BitSpan span(line, sizeof(line));
    for (unsigned w = 0; w < 11; ++w)
        span.write(size_t(w) * 43, 43,
                   (uint64_t(w + 1) << 32) | (0xdead0000u + w));
    for (unsigned w = 0; w < 11; ++w) {
        EXPECT_EQ(span.read(size_t(w) * 43, 43),
                  ((uint64_t(w + 1) << 32) | (0xdead0000u + w)) &
                      mask(43))
            << "way " << w;
    }
    // Trailing 39 bits remain zero.
    EXPECT_EQ(span.read(473, 39), 0u);
}

TEST(BitSpan, RandomizedRoundTripProperty)
{
    Rng rng(42);
    for (int iter = 0; iter < 2000; ++iter) {
        uint8_t buf[64] = {};
        BitSpan span(buf, sizeof(buf));
        int nbits = int(rng.inRange(1, 57));
        size_t offset = size_t(rng.below(512 - uint64_t(nbits)));
        uint64_t val = rng.next() & mask(nbits);
        span.write(offset, nbits, val);
        ASSERT_EQ(span.read(offset, nbits), val)
            << "offset=" << offset << " nbits=" << nbits;
    }
}

TEST(BitSpan, OverlappingWritesLastOneWins)
{
    uint8_t buf[16] = {};
    BitSpan span(buf, sizeof(buf));
    span.write(0, 16, 0xffff);
    span.write(4, 8, 0x00);
    EXPECT_EQ(span.read(0, 4), 0xfu);
    EXPECT_EQ(span.read(4, 8), 0x0u);
    EXPECT_EQ(span.read(12, 4), 0xfu);
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true, any_diff = false;
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next(), vb = b.next(), vc = c.next();
        all_equal = all_equal && (va == vb);
        any_diff = any_diff || (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricHasRoughlyRequestedMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += double(rng.geometric(6.0));
    EXPECT_NEAR(sum / n, 6.0, 0.5);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

// ---------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------

TEST(Zipf, AlphaZeroIsUniform)
{
    ZipfSampler z(10, 0.0);
    Rng rng(3);
    std::map<size_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[z.sample(rng)]++;
    for (auto &[item, count] : counts)
        EXPECT_NEAR(count / 50000.0, 0.1, 0.02) << "item " << item;
}

TEST(Zipf, SkewFavorsLowIndices)
{
    ZipfSampler z(1000, 1.0);
    Rng rng(5);
    int head = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        head += z.sample(rng) < 10;
    // With alpha=1 the top-10 of 1000 should take a large share.
    EXPECT_GT(head / double(n), 0.30);
}

TEST(Zipf, SamplesCoverTheRange)
{
    ZipfSampler z(4, 0.5);
    Rng rng(17);
    std::map<size_t, int> counts;
    for (int i = 0; i < 10000; ++i) {
        size_t s = z.sample(rng);
        ASSERT_LT(s, 4u);
        counts[s]++;
    }
    EXPECT_EQ(counts.size(), 4u);
}

TEST(Zipf, EqualParametersShareOneTable)
{
    const size_t n = 5000;
    const double alpha = 0.6;
    ZipfSampler a(n, alpha), b(n, alpha), other(n, 0.5);
    EXPECT_EQ(&a.cdf(), &b.cdf());
    EXPECT_NE(&a.cdf(), &other.cdf());

    // The inverse CDF, computed here from the definition.
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(double(i + 1), alpha);
        cdf[i] = sum;
    }
    for (auto &c : cdf)
        c /= sum;

    Rng ra(23), rb(23), ref(23);
    for (int i = 0; i < 20000; ++i) {
        const double u = ref.uniform();
        const size_t want = std::min<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
            n - 1);
        ASSERT_EQ(a.sample(ra), want) << "draw " << i;
        ASSERT_EQ(b.sample(rb), want) << "draw " << i;
    }
}

// ---------------------------------------------------------------------
// Args
// ---------------------------------------------------------------------

namespace {

Args
makeArgs(std::vector<std::string> tokens)
{
    static std::vector<std::string> storage;
    storage = std::move(tokens);
    static std::vector<char *> argv;
    argv.clear();
    for (auto &t : storage)
        argv.push_back(t.data());
    return Args(int(argv.size()), argv.data());
}

} // namespace

TEST(Args, ParsesKeyEqualsValue)
{
    Args a = makeArgs({"prog", "--refs=100", "--name=oracle"});
    EXPECT_EQ(a.getUint("refs"), 100u);
    EXPECT_EQ(a.getString("name"), "oracle");
}

TEST(Args, ParsesKeySpaceValue)
{
    Args a = makeArgs({"prog", "--refs", "250", "--alpha", "0.5"});
    EXPECT_EQ(a.getInt("refs"), 250);
    EXPECT_EQ(a.getString("alpha"), "0.5");
}

TEST(Args, BooleanFlags)
{
    Args a = makeArgs({"prog", "--csv", "--no-warmup"});
    EXPECT_TRUE(a.getBool("csv"));
    EXPECT_FALSE(a.getBool("warmup", true));
    EXPECT_TRUE(a.getBool("absent", true));
    EXPECT_FALSE(a.getBool("absent", false));
}

TEST(Args, DefaultsWhenAbsent)
{
    Args a = makeArgs({"prog"});
    EXPECT_EQ(a.getUint("refs", 42), 42u);
    EXPECT_EQ(a.getString("name", "x"), "x");
    EXPECT_TRUE(a.unreadKeys().empty()); // absent keys stay absent
}

TEST(Args, Positional)
{
    Args a = makeArgs({"prog", "--workloads=a,b,c", "pos1", "pos2"});
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[1], "pos2");
}

TEST(Args, ReportsKeysNoAccessorRead)
{
    Args a = makeArgs({"prog", "run", "--max-core", "8", "--smoke"});
    EXPECT_EQ(a.getUint("max-cores", 0), 0u); // the typo is not read
    EXPECT_EQ(a.unreadKeys(),
              (std::vector<std::string>{"max-core", "smoke"}));
    EXPECT_TRUE(a.getBool("smoke"));
    EXPECT_EQ(a.unreadKeys(), std::vector<std::string>{"max-core"});
    EXPECT_EXIT(a.rejectUnread("tool"), testing::ExitedWithCode(2),
                "tool: unknown option --max-core");
    a.getUint("max-core", 0);
    a.rejectUnread(); // everything read: returns
}

TEST(Args, NumbersRejectTrailingCharacters)
{
    Args a = makeArgs({"prog", "--max-cores=2x", "--n=-3k",
                       "--ok=0x10", "--neg=-5",
                       "--huge=99999999999999999999999", "--minus=-7"});
    EXPECT_EXIT(a.getUint("max-cores"), testing::ExitedWithCode(1),
                "expects an unsigned integer, got '2x'");
    EXPECT_EXIT(a.getInt("n"), testing::ExitedWithCode(1), "'-3k'");
    EXPECT_EQ(a.getUint("ok"), 16u);
    // strtoull would wrap -5 to 2^64 - 5, and saturate out of range.
    EXPECT_EXIT(a.getUint("neg"), testing::ExitedWithCode(1),
                "expects an unsigned integer, got '-5'");
    EXPECT_EXIT(a.getUint("huge"), testing::ExitedWithCode(1),
                "expects an unsigned integer, got '9999");
    EXPECT_EXIT(a.getInt("huge"), testing::ExitedWithCode(1),
                "expects an integer, got '9999");
    EXPECT_EQ(a.getInt("minus"), -7);
}
