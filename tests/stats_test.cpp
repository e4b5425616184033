/**
 * @file
 * Tests for the statistics library: counters, histograms, group
 * hierarchy, dump formatting and reset semantics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/group.hh"
#include "stats/stat.hh"

using namespace pvsim;
using namespace pvsim::stats;

TEST(ScalarStat, CountsAndResets)
{
    Group root(nullptr, "");
    Scalar s(&root, "hits", "cache hits");
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
    s.set(99);
    EXPECT_EQ(s.value(), 99u);
}

TEST(DistributionStat, BucketsSamplesCorrectly)
{
    Group root(nullptr, "");
    Distribution d(&root, "lat", "", 0, 100, 10);
    d.sample(5);   // bucket 0
    d.sample(15);  // bucket 1
    d.sample(15);  // bucket 1
    d.sample(99);  // bucket 9
    d.sample(150); // overflow
    EXPECT_EQ(d.samples(), 5u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
    EXPECT_EQ(d.bucketCount(9), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.minSampled(), 5u);
    EXPECT_EQ(d.maxSampled(), 150u);
    EXPECT_NEAR(d.mean(), (5 + 15 + 15 + 99 + 150) / 5.0, 1e-9);
}

TEST(DistributionStat, UnderflowWithNonzeroMin)
{
    Group root(nullptr, "");
    Distribution d(&root, "x", "", 10, 50, 10);
    d.sample(3);
    EXPECT_EQ(d.underflow(), 1u);
    d.reset();
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.samples(), 0u);
}

TEST(GroupHierarchy, PathsAreDotted)
{
    Group root(nullptr, "");
    Group sys(&root, "system");
    Group l2(&sys, "l2");
    EXPECT_EQ(l2.path(), "system.l2");
    EXPECT_EQ(sys.path(), "system");
}

TEST(GroupHierarchy, DumpIncludesAllDescendants)
{
    Group root(nullptr, "");
    Group a(&root, "a");
    Group b(&a, "b");
    Scalar s1(&a, "s1", "first");
    Scalar s2(&b, "s2", "second");
    s1 += 7;
    s2 += 9;

    std::ostringstream os;
    root.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("a.s1"), std::string::npos);
    EXPECT_NE(out.find("a.b.s2"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("# first"), std::string::npos);
}

TEST(GroupHierarchy, ResetPropagates)
{
    Group root(nullptr, "");
    Group child(&root, "c");
    Scalar s(&child, "s", "");
    s += 5;
    root.resetStats();
    EXPECT_EQ(s.value(), 0u);
}

TEST(GroupHierarchy, ChildDestructionUnregisters)
{
    Group root(nullptr, "");
    {
        Group child(&root, "ephemeral");
        Scalar s(&child, "s", "");
        s += 1;
    }
    // Dumping after the child died must not touch freed memory.
    std::ostringstream os;
    root.dumpStats(os);
    EXPECT_EQ(os.str().find("ephemeral"), std::string::npos);
}
