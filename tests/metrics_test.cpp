/**
 * @file
 * Tests for the harness metrics and table formatting: coverage
 * percentage math, traffic increase computation, confidence
 * intervals, and the text/CSV table output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/metrics.hh"
#include "harness/table.hh"

using namespace pvsim;

TEST(CoverageMetricsTest, PercentagesNormalizeToBaselineMisses)
{
    CoverageMetrics m;
    m.covered = 60;
    m.uncovered = 40;
    m.overpredictions = 25;
    EXPECT_EQ(m.denominator(), 100u);
    EXPECT_DOUBLE_EQ(m.coveredPct(), 60.0);
    EXPECT_DOUBLE_EQ(m.uncoveredPct(), 40.0);
    EXPECT_DOUBLE_EQ(m.overpredictionPct(), 25.0);
}

TEST(CoverageMetricsTest, EmptyDenominatorIsSafe)
{
    CoverageMetrics m;
    EXPECT_DOUBLE_EQ(m.coveredPct(), 0.0);
    EXPECT_DOUBLE_EQ(m.overpredictionPct(), 0.0);
}

TEST(PctIncreaseTest, Basics)
{
    EXPECT_DOUBLE_EQ(pctIncrease(100, 133), 33.0);
    EXPECT_DOUBLE_EQ(pctIncrease(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(pctIncrease(100, 90), -10.0);
    EXPECT_DOUBLE_EQ(pctIncrease(0, 50), 0.0) << "guarded division";
}

TEST(MeanCiTest, SingleSampleHasNoInterval)
{
    MeanCi r = meanCi({5.0});
    EXPECT_DOUBLE_EQ(r.mean, 5.0);
    EXPECT_DOUBLE_EQ(r.halfWidth, 0.0);
}

TEST(MeanCiTest, KnownSample)
{
    MeanCi r = meanCi({10.0, 12.0, 8.0, 10.0});
    EXPECT_DOUBLE_EQ(r.mean, 10.0);
    // stddev = sqrt(8/3), stderr = stddev/2, hw = 1.96*stderr.
    EXPECT_NEAR(r.halfWidth, 1.96 * std::sqrt(8.0 / 3.0) / 2.0,
                1e-9);
    EXPECT_EQ(r.n, 4u);
}

TEST(MeanCiTest, ZeroVarianceZeroWidth)
{
    MeanCi r = meanCi({3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(r.mean, 3.0);
    EXPECT_DOUBLE_EQ(r.halfWidth, 0.0);
}

TEST(AggregateIpcTest, Basics)
{
    EXPECT_DOUBLE_EQ(aggregateIpc(400, 100), 4.0);
    EXPECT_DOUBLE_EQ(aggregateIpc(400, 0), 0.0);
}

TEST(TextTableTest, AlignsAndPrints)
{
    TextTable t("Title");
    t.setColumns({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta-long", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("beta-long"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(FormatHelpersTest, Numbers)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPct(12.345, 1), "12.3%");
    EXPECT_EQ(fmtBytes(512), "512B");
    EXPECT_EQ(fmtBytes(59.125 * 1024), "59.125KB");
    EXPECT_EQ(fmtBytes(2.5 * 1024 * 1024), "2.50MB");
    EXPECT_EQ(fmtCount(42), "42");
}
