// Bit-exact differential test of the flat-buffer k-means, PCA and OLS
// kernels against their Row-per-point references (kernel_reference.h).
// Every output double is compared by bit pattern (std::bit_cast, so NaNs
// compare too): a reordered sum, a changed tie-break or a skipped step
// fails here even where the tolerance-based tests still pass.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analytics/kmeans.h"
#include "analytics/linear_regression.h"
#include "analytics/pca.h"
#include "common/rng.h"
#include "data/partitioner.h"
#include "data/synthetic.h"
#include "kernel_reference.h"

namespace gupt {
namespace analytics {
namespace {

using Dims = std::vector<std::size_t>;

class KernelDifferentialTest : public ::testing::Test {
 protected:
  void ExpectSameBits(double got, double want, const std::string& what) {
    ++compared_;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << what << ": " << got << " vs reference " << want;
  }

  void ExpectSameBits(const Row& got, const Row& want,
                      const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectSameBits(got[i], want[i], what + "[" + std::to_string(i) + "]");
    }
  }

  // Both ok with bit-identical values, or both the same error.
  template <typename T, typename Compare>
  void ExpectSame(const Result<T>& got, const Result<T>& want,
                  const std::string& what, Compare compare) {
    ASSERT_EQ(got.ok(), want.ok())
        << what << ": " << got.status().ToString() << " vs reference "
        << want.status().ToString();
    if (want.ok()) {
      compare(got.value(), want.value());
    } else {
      ++compared_;
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    }
  }

  void CheckKMeans(const Dataset& data, const KMeansOptions& options,
                   const std::string& what) {
    const std::string tag = what + " kmeans[k=" + std::to_string(options.k) +
                            ",iters=" + std::to_string(options.max_iterations) +
                            "]";
    Result<KMeansResult> want = reference::RunKMeans(data, options);
    ExpectSame(RunKMeans(data, options), want, tag,
               [&](const KMeansResult& g, const KMeansResult& w) {
                 EXPECT_EQ(g.iterations_run, w.iterations_run) << tag;
                 ASSERT_EQ(g.centers.size(), w.centers.size()) << tag;
                 for (std::size_t c = 0; c < w.centers.size(); ++c) {
                   ExpectSameBits(g.centers[c], w.centers[c],
                                  tag + " centre " + std::to_string(c));
                 }
               });
    if (want.ok()) {
      CheckVariance(data, want->centers, options.feature_dims, tag + " icv");
    }
  }

  void CheckVariance(const Dataset& data, const std::vector<Row>& centers,
                     const Dims& dims, const std::string& what) {
    ExpectSame(IntraClusterVariance(data, centers, dims),
               reference::IntraClusterVariance(data, centers, dims), what,
               [&](double g, double w) { ExpectSameBits(g, w, what); });
  }

  void CheckPca(const Dataset& data, const PcaOptions& options,
                const std::string& what) {
    const std::string tag = what + " pca";
    ExpectSame(ComputeTopComponent(data, options),
               reference::ComputeTopComponent(data, options), tag,
               [&](const PcaResult& g, const PcaResult& w) {
                 ExpectSameBits(g.component, w.component, tag + " component");
                 ExpectSameBits(g.eigenvalue, w.eigenvalue, tag + " eigen");
               });
  }

  void CheckOls(const Dataset& data, const LinearRegressionOptions& options,
                const std::string& what) {
    const std::string tag = what + " ols[target=" +
                            std::to_string(options.target_dim) + "]";
    ExpectSame(FitLinearRegression(data, options),
               reference::FitLinearRegression(data, options), tag,
               [&](const LinearModel& g, const LinearModel& w) {
                 ExpectSameBits(g.coefficients, w.coefficients, tag);
               });
  }

  // Every kernel under a spread of options on the columns `dims` (all of
  // which must exist in `data`; dims[0] doubles as the OLS target).
  void CheckAll(const Dataset& data, const Dims& dims,
                const std::string& what) {
    for (std::size_t k : {1, 3, 4, 5}) {
      KMeansOptions km;
      km.k = k;
      km.feature_dims = dims;
      CheckKMeans(data, km, what);
      km.tolerance = 0.0;
      km.max_iterations = 50;
      CheckKMeans(data, km, what + " tol0");
    }
    KMeansOptions all_columns;  // empty feature_dims: every column
    CheckKMeans(data, all_columns, what + " all-columns");

    PcaOptions pca;
    pca.feature_dims = dims;
    CheckPca(data, pca, what);
    pca.tolerance = 0.0;
    pca.max_iterations = 50;
    CheckPca(data, pca, what + " tol0");
    CheckPca(data, PcaOptions{}, what + " all-columns");

    LinearRegressionOptions ols;
    ols.feature_dims.assign(dims.begin() + 1, dims.end());
    if (ols.feature_dims.empty()) ols.feature_dims = dims;
    ols.target_dim = dims[0];
    CheckOls(data, ols, what);
    ols.ridge_lambda = 0.0;
    CheckOls(data, ols, what + " ridge0");
    ols.ridge_lambda = 0.5;
    CheckOls(data, ols, what + " ridge0.5");
  }

  std::size_t compared_ = 0;
};

Dataset FromRows(std::vector<Row> rows) {
  return Dataset::Create(std::move(rows)).value();
}

// Blocks of a seeded life-sciences table cut by the production
// partitioner at block size beta (at most `max_blocks` of them).
std::vector<Dataset> LifeSciencesBlocks(std::size_t beta,
                                        std::size_t max_blocks) {
  synthetic::LifeSciencesOptions options;
  options.num_rows = 6000;
  Dataset data = synthetic::LifeSciences(options).value();
  Rng rng(beta);
  BlockSet blocks = PartitionResampledView(data, beta, 1, &rng).value();
  std::vector<Dataset> out;
  for (std::size_t b = 0; b < blocks.num_blocks() && b < max_blocks; ++b) {
    out.push_back(blocks.block(b));
  }
  return out;
}

TEST_F(KernelDifferentialTest, LifeSciencesBlocksAtSeveralBlockSizes) {
  // The pooled_ml programs' own parameters.
  KMeansOptions kmeans;
  kmeans.k = 4;
  kmeans.feature_dims = {0, 1};
  PcaOptions pca;
  pca.feature_dims = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  LinearRegressionOptions ols;
  ols.feature_dims = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  ols.target_dim = 9;

  for (std::size_t beta : {37, 100, 450, 2000}) {
    std::vector<Dataset> blocks = LifeSciencesBlocks(beta, 4);
    ASSERT_FALSE(blocks.empty());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const std::string what =
          "beta=" + std::to_string(beta) + " block " + std::to_string(b);
      CheckKMeans(blocks[b], kmeans, what);
      CheckPca(blocks[b], pca, what);
      CheckOls(blocks[b], ols, what);
      CheckAll(blocks[b], {3, 1, 7}, what + " dims{3,1,7}");
    }
  }
  // The generator's true centres, scored on one block.
  std::vector<Row> truth;
  for (const Row& c :
       synthetic::LifeSciencesTrueCenters(synthetic::LifeSciencesOptions{})) {
    truth.push_back({c[0], c[1]});
  }
  CheckVariance(LifeSciencesBlocks(450, 1)[0], truth, {0, 1}, "true centres");
  EXPECT_GT(compared_, 2800u);
}

TEST_F(KernelDifferentialTest, HeavyTies) {
  // A 3 x 3 integer grid, each point repeated: many points sit exactly
  // between two centres, so the lowest-index tie-break decides.
  std::vector<Row> rows;
  for (int rep = 0; rep < 5; ++rep) {
    for (int x = 0; x < 3; ++x) {
      for (int y = 0; y < 3; ++y) {
        rows.push_back({static_cast<double>(x), static_cast<double>(y),
                        static_cast<double>(x + y)});
      }
    }
  }
  CheckAll(FromRows(rows), {0, 1, 2}, "ties");
  CheckAll(FromRows(rows), {2, 0}, "ties dims{2,0}");
  // Centres equidistant from grid points.
  CheckVariance(FromRows(rows), {{0.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}}, {0, 1},
                "ties icv");
  EXPECT_GT(compared_, 200u);
}

TEST_F(KernelDifferentialTest, ConstantAndIdenticalColumns) {
  Rng rng(11);
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({5.0, rng.Gaussian(0.0, 1.0), 5.0, rng.Gaussian(2.0, 3.0)});
  }
  CheckAll(FromRows(rows), {1, 0, 3, 2}, "constant");
  // Every row identical: zero covariance, zero k-means++ mass, singular
  // normal equations.
  CheckAll(FromRows(std::vector<Row>(12, Row{1.5, -2.0, 1.5})), {0, 1, 2},
           "identical");
  EXPECT_GT(compared_, 250u);
}

TEST_F(KernelDifferentialTest, DyadicGridAndLargeMagnitudes) {
  Rng rng(12);
  std::vector<Row> dyadic;
  std::vector<Row> large;
  for (int i = 0; i < 64; ++i) {
    dyadic.push_back({static_cast<double>(rng.UniformUint64(16)) / 8.0,
                      static_cast<double>(rng.UniformUint64(64)) / 32.0,
                      static_cast<double>(rng.UniformUint64(4)) / 2.0});
    const double sign = (i % 2 == 0) ? 1.0 : -1.0;
    large.push_back({sign * 1e6 + rng.Gaussian(0.0, 1.0),
                     rng.Gaussian(0.0, 1e6), -sign * 1e6,
                     rng.UniformDouble(-1e6, 1e6)});
  }
  CheckAll(FromRows(dyadic), {0, 1, 2}, "dyadic");
  CheckAll(FromRows(large), {3, 1, 0, 2}, "1e6");
  EXPECT_GT(compared_, 250u);
}

TEST_F(KernelDifferentialTest, SmallBlocksAndErrors) {
  Rng rng(13);
  auto random_rows = [&](std::size_t n) {
    std::vector<Row> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back({rng.Gaussian(), rng.Gaussian(), rng.Gaussian(),
                      rng.Gaussian()});
    }
    return FromRows(std::move(rows));
  };
  // n = 2, n = k (each point its own centre) and n < k (an error).
  for (std::size_t n : {2, 3, 4, 5}) {
    CheckAll(random_rows(n), {2, 0, 3}, "n=" + std::to_string(n));
  }
  Dataset one_row = random_rows(1);
  CheckAll(one_row, {0, 1}, "n=1");
  // Out-of-range dims error identically in every kernel.
  CheckAll(random_rows(20), {1, 9}, "bad dim");
  CheckVariance(random_rows(20), {}, {0}, "no centres");
  CheckVariance(random_rows(20), {{1.0, 2.0}}, {0}, "centre arity");
  KMeansOptions zero_k;
  zero_k.k = 0;
  CheckKMeans(random_rows(20), zero_k, "k=0");
  EXPECT_GT(compared_, 350u);
}

TEST_F(KernelDifferentialTest, NaNInputs) {
  // One canonical quiet NaN cell: every kernel propagates it through the
  // same operations in the same order as the reference.
  Rng rng(14);
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({rng.Gaussian(), rng.Gaussian(), rng.Gaussian()});
  }
  rows[7][1] = std::numeric_limits<double>::quiet_NaN();
  CheckAll(FromRows(rows), {0, 1, 2}, "nan");
  EXPECT_GT(compared_, 100u);
}

}  // namespace
}  // namespace analytics
}  // namespace gupt
