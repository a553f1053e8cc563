#include "common/vec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace gupt {
namespace {

TEST(VecTest, Dot) {
  EXPECT_DOUBLE_EQ(vec::Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(vec::Dot({}, {}), 0.0);
}

TEST(VecTest, SquaredDistance) {
  EXPECT_DOUBLE_EQ(vec::SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(vec::SquaredDistance({1, 1}, {1, 1}), 0.0);
}

TEST(VecTest, Norm) {
  EXPECT_DOUBLE_EQ(vec::Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(vec::Norm({0, 0, 0}), 0.0);
}

TEST(VecTest, AddSubScale) {
  Row a = {1, 2}, b = {10, 20};
  EXPECT_EQ(vec::Add(a, b), (Row{11, 22}));
  EXPECT_EQ(vec::Sub(b, a), (Row{9, 18}));
  EXPECT_EQ(vec::Scale(a, 3.0), (Row{3, 6}));
}

TEST(VecTest, InPlaceOps) {
  Row a = {1, 2};
  vec::AddInPlace(&a, {4, 5});
  EXPECT_EQ(a, (Row{5, 7}));
  vec::ScaleInPlace(&a, 2.0);
  EXPECT_EQ(a, (Row{10, 14}));
}

TEST(VecTest, ClampScalar) {
  EXPECT_DOUBLE_EQ(vec::ClampScalar(5.0, 0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(vec::ClampScalar(-1.0, 0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(vec::ClampScalar(2.0, 0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(vec::ClampScalar(2.0, 2.0, 2.0), 2.0);
}

TEST(VecTest, ClampVector) {
  Row v = {-5, 0.5, 10};
  Row lo = {0, 0, 0}, hi = {1, 1, 1};
  EXPECT_EQ(vec::Clamp(v, lo, hi), (Row{0, 0.5, 1}));
}

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(stats::Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(stats::Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Mean({-1, 1}), 0.0);
}

TEST(StatsTest, VarianceBasics) {
  EXPECT_DOUBLE_EQ(stats::Variance({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Variance({1}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Variance({}), 0.0);
  // Population variance of {2, 4} is 1.
  EXPECT_DOUBLE_EQ(stats::Variance({2, 4}), 1.0);
}

TEST(StatsTest, StdDev) {
  EXPECT_DOUBLE_EQ(stats::StdDev({2, 4}), 1.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::Quantile(xs, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(stats::Quantile(xs, 1.0).value(), 4.0);
  EXPECT_DOUBLE_EQ(stats::Quantile(xs, 0.5).value(), 2.5);
  EXPECT_DOUBLE_EQ(stats::Quantile({7}, 0.5).value(), 7.0);
}

TEST(StatsTest, QuantileSortsInput) {
  EXPECT_DOUBLE_EQ(stats::Quantile({9, 1, 5}, 0.5).value(), 5.0);
}

TEST(StatsTest, QuantileIgnoresAZeroWeightInfiniteNeighbour) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(stats::Quantile({1, 2, inf}, 0.5).value(), 2.0);
  EXPECT_EQ(stats::Quantile({1, 2, inf}, 1.0).value(), inf);
  EXPECT_EQ(stats::Quantile({inf, 1}, 0.0).value(), 1.0);
  EXPECT_EQ(stats::Quantile({2, -inf, 1}, 0.5).value(), 1.0);
  // Weighted infinities still dominate.
  EXPECT_EQ(stats::Quantile({1, 2, inf}, 0.75).value(), inf);
  EXPECT_EQ(stats::Quantile({-inf, 1, 2}, 0.25).value(), -inf);
}

TEST(StatsTest, SortedQuantileReadsTheSortedInput) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_EQ(stats::SortedQuantile(sorted, 0.25).value(), 1.75);
  EXPECT_EQ(stats::SortedQuantile(sorted, 0.75).value(), 3.25);
  EXPECT_FALSE(stats::SortedQuantile({}, 0.5).ok());
  EXPECT_FALSE(stats::SortedQuantile(sorted, 1.5).ok());
}

TEST(StatsTest, QuantileErrors) {
  EXPECT_FALSE(stats::Quantile({}, 0.5).ok());
  EXPECT_FALSE(stats::Quantile({1.0}, -0.1).ok());
  EXPECT_FALSE(stats::Quantile({1.0}, 1.1).ok());
  EXPECT_FALSE(stats::Quantile({1.0, 2.0, 3.0}, std::nan("")).ok());
}

TEST(StatsTest, Rmse) {
  EXPECT_DOUBLE_EQ(stats::Rmse({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(stats::Rmse({}, {}), 0.0);
}

TEST(StatsTest, MeanRows) {
  std::vector<Row> rows = {{1, 10}, {3, 30}};
  Row mean = stats::MeanRows(rows).value();
  EXPECT_EQ(mean, (Row{2, 20}));
}

TEST(StatsTest, MeanRowsErrors) {
  EXPECT_FALSE(stats::MeanRows({}).ok());
  EXPECT_FALSE(stats::MeanRows({{1, 2}, {1}}).ok());
}

}  // namespace
}  // namespace gupt
