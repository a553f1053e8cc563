#include "analytics/queries.h"

#include <gtest/gtest.h>

#include <limits>

namespace gupt {
namespace analytics {
namespace {

Dataset TwoColumns() {
  return Dataset::Create({{1, 2}, {2, 4}, {3, 6}, {4, 8}}).value();
}

TEST(MeanQueryTest, ComputesColumnMean) {
  auto program = MeanQuery(0)();
  EXPECT_EQ(program->Run(TwoColumns()).value(), (Row{2.5}));
  EXPECT_EQ(MeanQuery(1)()->Run(TwoColumns()).value(), (Row{5.0}));
}

TEST(MeanQueryTest, OutOfRangeColumnErrors) {
  EXPECT_FALSE(MeanQuery(2)()->Run(TwoColumns()).ok());
}

TEST(MeanQueryTest, DeclaresScalarOutput) {
  EXPECT_EQ(MeanQuery(0)()->output_dims(), 1u);
}

TEST(VarianceQueryTest, PopulationVariance) {
  // Column 0 = {1,2,3,4}: mean 2.5, population variance 1.25.
  EXPECT_EQ(VarianceQuery(0)()->Run(TwoColumns()).value(), (Row{1.25}));
}

TEST(MedianQueryTest, Interpolated) {
  EXPECT_EQ(MedianQuery(0)()->Run(TwoColumns()).value(), (Row{2.5}));
}

TEST(MedianQueryTest, InfiniteNeighbourWithZeroWeightIsIgnored) {
  const double inf = std::numeric_limits<double>::infinity();
  Dataset block = Dataset::FromColumn({1.0, 2.0, inf}).value();
  EXPECT_EQ(MedianQuery(0)()->Run(block).value(), (Row{2.0}));
  EXPECT_EQ(QuantileQuery(0, 1.0)()->Run(block).value(), (Row{inf}));
}

TEST(QuantileQueryTest, TracksQuantiles) {
  EXPECT_EQ(QuantileQuery(0, 0.0)()->Run(TwoColumns()).value(), (Row{1.0}));
  EXPECT_EQ(QuantileQuery(0, 1.0)()->Run(TwoColumns()).value(), (Row{4.0}));
}

TEST(QuantileQueryTest, InvalidQErrors) {
  EXPECT_FALSE(QuantileQuery(0, 2.0)()->Run(TwoColumns()).ok());
}

TEST(MeanAllDimsQueryTest, PerDimensionMeans) {
  auto program = MeanAllDimsQuery(2)();
  EXPECT_EQ(program->output_dims(), 2u);
  EXPECT_EQ(program->Run(TwoColumns()).value(), (Row{2.5, 5.0}));
}

TEST(MeanAllDimsQueryTest, DimensionMismatchErrors) {
  EXPECT_FALSE(MeanAllDimsQuery(3)()->Run(TwoColumns()).ok());
}

TEST(CovarianceQueryTest, PerfectlyCorrelatedColumns) {
  // Column 1 = 2 * column 0: cov = 2 * var = 2.5.
  EXPECT_EQ(CovarianceQuery(0, 1)()->Run(TwoColumns()).value(), (Row{2.5}));
}

TEST(CovarianceQueryTest, SelfCovarianceIsVariance) {
  EXPECT_EQ(CovarianceQuery(0, 0)()->Run(TwoColumns()).value(), (Row{1.25}));
}

TEST(HistogramQueryTest, NormalisedCounts) {
  Dataset data = Dataset::FromColumn({0.1, 0.2, 0.6, 0.9}).value();
  auto program = HistogramQuery(0, 2, 0.0, 1.0)();
  EXPECT_EQ(program->output_dims(), 2u);
  Row hist = program->Run(data).value();
  EXPECT_DOUBLE_EQ(hist[0], 0.5);
  EXPECT_DOUBLE_EQ(hist[1], 0.5);
}

TEST(HistogramQueryTest, OutOfRangeValuesClampToBoundaryBins) {
  Dataset data = Dataset::FromColumn({-5.0, 5.0}).value();
  Row hist = HistogramQuery(0, 4, 0.0, 1.0)()->Run(data).value();
  EXPECT_DOUBLE_EQ(hist[0], 0.5);
  EXPECT_DOUBLE_EQ(hist[3], 0.5);
}

TEST(HistogramQueryTest, ExactBoundaryGoesToLastBin) {
  Dataset data = Dataset::FromColumn({1.0}).value();
  Row hist = HistogramQuery(0, 4, 0.0, 1.0)()->Run(data).value();
  EXPECT_DOUBLE_EQ(hist[3], 1.0);
}

TEST(HistogramQueryTest, InvalidParametersError) {
  Dataset data = Dataset::FromColumn({0.5}).value();
  EXPECT_FALSE(HistogramQuery(0, 0, 0.0, 1.0)()->Run(data).ok());
  EXPECT_FALSE(HistogramQuery(0, 2, 1.0, 0.0)()->Run(data).ok());
}

TEST(QueryNamesTest, AreDescriptive) {
  EXPECT_EQ(MeanQuery(3)()->name(), "mean[3]");
  EXPECT_EQ(VarianceQuery(0)()->name(), "variance[0]");
}

}  // namespace
}  // namespace analytics
}  // namespace gupt
