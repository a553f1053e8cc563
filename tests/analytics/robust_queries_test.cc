// Tests for the robust location/scale estimators (winsorized mean, trimmed
// mean, IQR) — Smith (STOC'11)'s canonical approximately-normal statistics.

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/queries.h"
#include "common/rng.h"

namespace gupt {
namespace analytics {
namespace {

Dataset WithOutliers(std::uint64_t seed) {
  // Bulk around 10 with two wild (one-sided) outliers.
  Rng rng(seed);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Gaussian(10.0, 1.0));
  values.push_back(1e6);
  values.push_back(2e6);
  return Dataset::FromColumn(values).value();
}

TEST(WinsorizedMeanTest, ResistsOutliers) {
  Dataset data = WithOutliers(1);
  double plain = MeanQuery(0)()->Run(data).value()[0];
  double winsorized = WinsorizedMeanQuery(0, 0.05)()->Run(data).value()[0];
  EXPECT_GT(std::fabs(plain - 10.0), 100.0);   // wrecked by outliers
  EXPECT_NEAR(winsorized, 10.0, 0.5);          // robust
}

TEST(WinsorizedMeanTest, ZeroTrimEqualsPlainMean) {
  Dataset data = Dataset::FromColumn({1.0, 2.0, 3.0, 4.0}).value();
  double plain = MeanQuery(0)()->Run(data).value()[0];
  double winsorized = WinsorizedMeanQuery(0, 0.0)()->Run(data).value()[0];
  EXPECT_DOUBLE_EQ(winsorized, plain);
}

TEST(WinsorizedMeanTest, RejectsBadTrim) {
  Dataset data = Dataset::FromColumn({1.0, 2.0}).value();
  EXPECT_FALSE(WinsorizedMeanQuery(0, 0.5)()->Run(data).ok());
  EXPECT_FALSE(WinsorizedMeanQuery(0, -0.1)()->Run(data).ok());
  EXPECT_FALSE(WinsorizedMeanQuery(0, std::nan(""))()->Run(data).ok());
  EXPECT_FALSE(TrimmedMeanQuery(0, std::nan(""))()->Run(data).ok());
  EXPECT_FALSE(QuantileQuery(0, std::nan(""))()->Run(data).ok());
}

TEST(TrimmedMeanTest, ResistsOutliers) {
  Dataset data = WithOutliers(2);
  double trimmed = TrimmedMeanQuery(0, 0.05)()->Run(data).value()[0];
  EXPECT_NEAR(trimmed, 10.0, 0.5);
}

TEST(TrimmedMeanTest, DropsSymmetrically) {
  // {0, 1, 2, 3, 100} at trim 0.2 drops one from each end: mean(1,2,3)=2.
  Dataset data = Dataset::FromColumn({0.0, 1.0, 2.0, 3.0, 100.0}).value();
  EXPECT_DOUBLE_EQ(TrimmedMeanQuery(0, 0.2)()->Run(data).value()[0], 2.0);
}

TEST(TrimmedMeanTest, NearMaximalTrimActsLikeMedian) {
  // trim 0.45 on 5 values drops two from each end: only the median is left.
  Dataset data = Dataset::FromColumn({100.0, 0.0, 7.0, 1.0, -50.0}).value();
  EXPECT_DOUBLE_EQ(TrimmedMeanQuery(0, 0.45)()->Run(data).value()[0], 1.0);
}

TEST(IqrTest, MatchesQuantileSpread) {
  // Uniform 0..100: q75 - q25 = 50.
  std::vector<double> values;
  for (int i = 0; i <= 100; ++i) values.push_back(static_cast<double>(i));
  Dataset data = Dataset::FromColumn(values).value();
  EXPECT_DOUBLE_EQ(IqrQuery(0)()->Run(data).value()[0], 50.0);
}

TEST(IqrTest, ZeroForConstantData) {
  Dataset data = Dataset::FromColumn({7.0, 7.0, 7.0}).value();
  EXPECT_DOUBLE_EQ(IqrQuery(0)()->Run(data).value()[0], 0.0);
}

TEST(RobustQueriesTest, OutOfRangeColumnErrors) {
  Dataset data = Dataset::FromColumn({1.0}).value();
  EXPECT_FALSE(WinsorizedMeanQuery(3, 0.1)()->Run(data).ok());
  EXPECT_FALSE(TrimmedMeanQuery(3, 0.1)()->Run(data).ok());
  EXPECT_FALSE(IqrQuery(3)()->Run(data).ok());
}

// Property sweep: the winsorized mean interpolates between median-like and
// mean-like behaviour as trim varies.
class WinsorizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(WinsorizeSweep, StaysInsideDataRangeBulk) {
  Dataset data = WithOutliers(3);
  double w = WinsorizedMeanQuery(0, GetParam())()->Run(data).value()[0];
  EXPECT_GT(w, 5.0);
  EXPECT_LT(w, 15.0);
}

INSTANTIATE_TEST_SUITE_P(Trims, WinsorizeSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.45));

}  // namespace
}  // namespace analytics
}  // namespace gupt
