// Bit-exact differential test of the order-statistic programs (quantile,
// median, IQR, winsorized mean, trimmed mean, decision stump) against
// copies of their std::sort versions. Each program now sorts through
// stats::SortAscending, and IQR and the winsorized mean sort once for both
// of their quantiles; every output must keep its bits. The one intended
// change: where a quantile's zero-weight neighbour is infinite, the old
// interpolation returned inf * 0 = NaN, and the program now returns the
// weighted neighbour instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analytics/queries.h"
#include "common/rng.h"
#include "data/partitioner.h"
#include "data/synthetic.h"

namespace gupt {
namespace analytics {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- the std::sort versions of the program bodies, verbatim --------------

namespace reference {

Result<double> Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return Status::InvalidArgument("quantile of an empty sequence");
  }
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("quantile q must be in [0, 1]");
  }
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

Result<Row> WinsorizedMean(const Dataset& block, std::size_t dim,
                           double trim) {
  if (trim < 0.0 || trim >= 0.5) {
    return Status::InvalidArgument("trim must be in [0, 0.5)");
  }
  GUPT_ASSIGN_OR_RETURN(auto column, block.Column(dim));
  GUPT_ASSIGN_OR_RETURN(double lo, Quantile(column, trim));
  GUPT_ASSIGN_OR_RETURN(double hi, Quantile(column, 1.0 - trim));
  double sum = 0.0;
  for (double v : column) sum += vec::ClampScalar(v, lo, hi);
  return Row{sum / static_cast<double>(column.size())};
}

Result<Row> TrimmedMean(const Dataset& block, std::size_t dim, double trim) {
  if (trim < 0.0 || trim >= 0.5) {
    return Status::InvalidArgument("trim must be in [0, 0.5)");
  }
  GUPT_ASSIGN_OR_RETURN(auto column, block.Column(dim));
  std::sort(column.begin(), column.end());
  auto drop =
      static_cast<std::size_t>(trim * static_cast<double>(column.size()));
  if (column.size() <= 2 * drop) {
    return Status::InvalidArgument("block too small for trim level");
  }
  double sum = 0.0;
  for (std::size_t i = drop; i < column.size() - drop; ++i) {
    sum += column[i];
  }
  return Row{sum / static_cast<double>(column.size() - 2 * drop)};
}

Result<Row> DecisionStump(const Dataset& block,
                          const std::vector<std::size_t>& feature_dims,
                          std::size_t label_dim) {
  double best_accuracy = -1.0;
  Row best = {0.0, 0.0, 1.0};
  for (std::size_t f = 0; f < feature_dims.size(); ++f) {
    GUPT_ASSIGN_OR_RETURN(auto column, block.Column(feature_dims[f]));
    GUPT_ASSIGN_OR_RETURN(auto labels, block.Column(label_dim));
    std::vector<double> sorted = column;
    std::sort(sorted.begin(), sorted.end());
    std::size_t stride = std::max<std::size_t>(1, sorted.size() / 64);
    for (std::size_t i = 0; i + 1 < sorted.size(); i += stride) {
      double threshold = 0.5 * (sorted[i] + sorted[i + 1]);
      std::size_t hits = 0;
      for (std::size_t r = 0; r < column.size(); ++r) {
        bool predicted = column[r] > threshold;
        bool actual = labels[r] > 0.5;
        if (predicted == actual) ++hits;
      }
      double accuracy =
          static_cast<double>(hits) / static_cast<double>(column.size());
      double polarity = 1.0;
      if (accuracy < 0.5) {
        accuracy = 1.0 - accuracy;
        polarity = -1.0;
      }
      if (accuracy > best_accuracy) {
        best_accuracy = accuracy;
        best = {static_cast<double>(f), threshold, polarity};
      }
    }
  }
  return best;
}

}  // namespace reference

// True where the std::sort version's q-quantile of `column` interpolates
// with weight 0 towards an infinite neighbour, the case it returns NaN for.
bool ZeroWeightInfiniteNeighbour(std::vector<double> column, double q) {
  if (column.empty()) return false;
  std::sort(column.begin(), column.end());
  const double pos = q * static_cast<double>(column.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, column.size() - 1);
  return pos == static_cast<double>(lo) && std::isinf(column[hi]);
}

// The q-quantile the fixed version returns in that case: the neighbour
// with all the weight.
double WeightedNeighbour(std::vector<double> column, double q) {
  std::sort(column.begin(), column.end());
  return column[static_cast<std::size_t>(
      q * static_cast<double>(column.size() - 1))];
}

class OrderStatDifferentialTest : public ::testing::Test {
 protected:
  void ExpectSameBits(const Result<Row>& got, const Result<Row>& want,
                      const std::string& what) {
    ++compared_;
    ASSERT_EQ(got.ok(), want.ok()) << what << ": " << got.status().ToString()
                                   << " vs " << want.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
      return;
    }
    ASSERT_EQ(got.value().size(), want.value().size()) << what;
    for (std::size_t i = 0; i < want.value().size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value()[i]),
                std::bit_cast<std::uint64_t>(want.value()[i]))
          << what << "[" << i << "]: " << got.value()[i] << " vs "
          << want.value()[i];
    }
  }

  // Runs every single-column program on `block` and compares it with the
  // std::sort version.
  void CompareColumnPrograms(const Dataset& block, const std::string& what) {
    const std::vector<double> column = block.Column(0).value();
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      const std::string at = what + " quantile " + std::to_string(q);
      Result<Row> got = QuantileQuery(0, q)()->Run(block);
      if (ZeroWeightInfiniteNeighbour(column, q)) {
        ++fixed_;
        ASSERT_TRUE(got.ok()) << at;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value()[0]),
                  std::bit_cast<std::uint64_t>(WeightedNeighbour(column, q)))
            << at;
        continue;
      }
      Result<double> want = reference::Quantile(column, q);
      ExpectSameBits(got, want.ok() ? Result<Row>(Row{want.value()})
                                    : Result<Row>(want.status()),
                     at);
    }
    if (!ZeroWeightInfiniteNeighbour(column, 0.5)) {
      Result<double> want = reference::Quantile(column, 0.5);
      ExpectSameBits(MedianQuery(0)()->Run(block),
                     want.ok() ? Result<Row>(Row{want.value()})
                               : Result<Row>(want.status()),
                     what + " median");
    }
    if (!ZeroWeightInfiniteNeighbour(column, 0.25) &&
        !ZeroWeightInfiniteNeighbour(column, 0.75)) {
      Result<double> q25 = reference::Quantile(column, 0.25);
      Result<double> q75 = reference::Quantile(column, 0.75);
      ExpectSameBits(IqrQuery(0)()->Run(block),
                     q25.ok() ? Result<Row>(Row{q75.value() - q25.value()})
                              : Result<Row>(q25.status()),
                     what + " iqr");
    }
    for (double trim : {0.0, 0.05, 0.1, 0.25, 0.49}) {
      const std::string at = what + " trim " + std::to_string(trim);
      ExpectSameBits(TrimmedMeanQuery(0, trim)()->Run(block),
                     reference::TrimmedMean(block, 0, trim), at);
      if (ZeroWeightInfiniteNeighbour(column, trim) ||
          ZeroWeightInfiniteNeighbour(column, 1.0 - trim)) {
        continue;
      }
      ExpectSameBits(WinsorizedMeanQuery(0, trim)()->Run(block),
                     reference::WinsorizedMean(block, 0, trim),
                     at + " winsorized");
    }
  }

  std::size_t compared_ = 0;
  std::size_t fixed_ = 0;  // quantiles the old version answered with NaN
};

TEST_F(OrderStatDifferentialTest, CensusAgeBlocks) {
  const Dataset ages = synthetic::CensusAges({}).value();
  Rng rng(2012);
  const BlockSet blocks =
      PartitionDisjointView(ages, DefaultNumBlocks(ages.num_rows()), &rng)
          .value();
  ASSERT_GE(blocks.num_blocks(), 60u);
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    CompareColumnPrograms(blocks.block(b), "census block " + std::to_string(b));
  }
  CompareColumnPrograms(ages, "census");
  EXPECT_EQ(fixed_, 0u);
}

TEST_F(OrderStatDifferentialTest, AwkwardColumns) {
  Rng rng(7);
  struct Draw {
    std::string name;
    double (*draw)(Rng*);
  };
  const Draw draws[] = {
      {"gaussian", [](Rng* r) { return r->Gaussian(0.0, 100.0); }},
      {"ties", [](Rng* r) { return static_cast<double>(r->UniformUint64(3)); }},
      {"-0.0 and negatives",
       [](Rng* r) { return r->Bernoulli(0.5) ? -0.0 : -r->UniformDouble(); }},
      {"+-0.0", [](Rng* r) { return r->Bernoulli(0.5) ? -0.0 : 0.0; }},
      {"infinities",
       [](Rng* r) {
         const double u = r->UniformDouble();
         return u < 0.05 ? kInf : u < 0.1 ? -kInf : r->Gaussian(0.0, 1.0);
       }},
      {"subnormals",
       [](Rng* r) {
         return std::bit_cast<double>(r->NextUint64() & 0x800FFFFFFFFFFFFFULL);
       }},
  };
  for (const Draw& d : draws) {
    for (std::size_t n : {1u, 2u, 3u, 31u, 32u, 33u, 509u, 2000u}) {
      std::vector<double> column(n);
      for (double& x : column) x = d.draw(&rng);
      CompareColumnPrograms(Dataset::FromColumn(column).value(),
                            d.name + " n=" + std::to_string(n));
    }
  }
  // Columns that put an infinite neighbour at weight 0.
  CompareColumnPrograms(Dataset::FromColumn({1.0, 2.0, kInf}).value(), "probe");
  CompareColumnPrograms(Dataset::FromColumn({kInf, -kInf, 0.0, 5.0}).value(),
                        "both infinities");
  EXPECT_GT(fixed_, 0u);
  EXPECT_GT(compared_, 900u);
}

TEST_F(OrderStatDifferentialTest, DecisionStump) {
  Rng rng(11);
  for (std::size_t n : {2u, 33u, 450u, 509u, 3000u}) {
    std::vector<double> a(n), b(n), ties(n), labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.Gaussian(0.0, 3.0);
      b[i] = rng.Bernoulli(0.1) ? -0.0 : rng.Gaussian(1.0, 1.0);
      ties[i] = static_cast<double>(rng.UniformUint64(5)) - 2.0;
      labels[i] = (a[i] + rng.Gaussian(0.0, 1.0) > 0.0) ? 1.0 : 0.0;
    }
    const Dataset block =
        Dataset::FromColumns({a, b, ties, labels}).value();
    const std::vector<std::size_t> features = {0, 1, 2};
    ExpectSameBits(DecisionStumpQuery(features, 3)()->Run(block),
                   reference::DecisionStump(block, features, 3),
                   "stump n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace analytics
}  // namespace gupt
