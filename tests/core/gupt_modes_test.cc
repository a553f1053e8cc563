// Additional GuptRuntime coverage: range-mode corners, wider percentile
// pairs, query-level loose inputs, mixed shared-budget batches, and
// resampling composed with range estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/queries.h"
#include "common/rng.h"
#include "core/gupt.h"

namespace gupt {
namespace {

Dataset Ages(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(vec::ClampScalar(rng.Gaussian(38.0, 12.0), 0.0, 150.0));
  }
  return Dataset::FromColumn(values).value();
}

class GuptModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetOptions opts;
    opts.total_epsilon = 1e6;
    ASSERT_TRUE(manager_.Register("ages", Ages(20000, 9), opts).ok());
    true_mean_ =
        stats::Mean(manager_.Get("ages").value()->data().Column(0).value());
  }
  DatasetManager manager_;
  double true_mean_ = 0.0;
};

TEST_F(GuptModesTest, HelperModeWithQueryLevelLooseInputs) {
  // No owner-registered input ranges needed: the query supplies them.
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Helper(
      [](const std::vector<Range>& in) -> Result<std::vector<Range>> {
        return std::vector<Range>{in[0]};
      },
      /*loose_input_ranges=*/{Range{0.0, 200.0}});
  auto report = runtime.Execute("ages", spec);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->output[0], true_mean_, 10.0);
}

TEST_F(GuptModesTest, HelperModeWithoutAnyInputRangesFails) {
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Helper(
      [](const std::vector<Range>& in) -> Result<std::vector<Range>> {
        return std::vector<Range>{in[0]};
      });  // no loose inputs anywhere
  EXPECT_FALSE(runtime.Execute("ages", spec).ok());
}

TEST_F(GuptModesTest, WiderPercentilePairWidensEffectiveRange) {
  GuptRuntime runtime(&manager_, GuptOptions{});
  auto width_with_pair = [&](double lo_pct, double hi_pct) {
    double total = 0.0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      QuerySpec spec;
      spec.program = analytics::MeanQuery(0);
      spec.epsilon = 4.0;
      spec.range = OutputRangeSpec::Loose({Range{0.0, 300.0}});
      spec.range.lower_percentile = lo_pct;
      spec.range.upper_percentile = hi_pct;
      auto report = runtime.Execute("ages", spec);
      EXPECT_TRUE(report.ok());
      total += report->effective_ranges[0].width();
    }
    return total / trials;
  };
  // Block means concentrate, but the 10/90 pair still covers more of their
  // spread than the inter-quartile pair.
  EXPECT_GT(width_with_pair(0.10, 0.90), width_with_pair(0.25, 0.75));
}

TEST_F(GuptModesTest, LooseModeComposesWithResampling) {
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 4.0;
  spec.range = OutputRangeSpec::Loose({Range{0.0, 300.0}});
  spec.block_size = 400;
  spec.gamma = 3;
  auto report = runtime.Execute("ages", spec);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->gamma, 3u);
  EXPECT_EQ(report->num_blocks, 3u * 50u);
  EXPECT_NEAR(report->output[0], true_mean_, 8.0);
}

TEST_F(GuptModesTest, SharedBudgetWithThreeMixedQueries) {
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec mean_q;
  mean_q.program = analytics::MeanQuery(0);
  mean_q.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  mean_q.block_size = 200;

  QuerySpec median_q;
  median_q.program = analytics::MedianQuery(0);
  median_q.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  median_q.block_size = 200;

  QuerySpec loose_q;
  loose_q.program = analytics::MeanQuery(0);
  loose_q.range = OutputRangeSpec::Loose({Range{0.0, 300.0}});
  loose_q.block_size = 200;

  auto reports = runtime.ExecuteWithSharedBudget(
      "ages", {mean_q, median_q, loose_q}, 3.0);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 3u);
  double total = 0.0;
  for (const auto& r : *reports) total += r.epsilon_spent;
  EXPECT_NEAR(total, 3.0, 1e-9);
  // Same block geometry + same tight width => equal epsilons for the two
  // tight queries; the loose one gets double (mode multiplier 2 at equal
  // zeta) so its SAF share matches.
  EXPECT_NEAR((*reports)[0].epsilon_spent, (*reports)[1].epsilon_spent,
              1e-9);
  EXPECT_GT((*reports)[2].epsilon_spent, (*reports)[0].epsilon_spent);
}

TEST_F(GuptModesTest, SharedBudgetEqualisesEmpiricalNoise) {
  // The design goal of §5.2, verified empirically: across repeated runs,
  // queries with very different output scales come back with roughly the
  // same noise std-dev when sharing one budget.
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec mean_q;
  mean_q.program = analytics::MeanQuery(0);
  mean_q.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  mean_q.block_size = 200;
  QuerySpec var_q;
  var_q.program = analytics::VarianceQuery(0);
  var_q.range = OutputRangeSpec::Tight({Range{0.0, 5625.0}});
  var_q.block_size = 200;

  std::vector<double> mean_outputs, var_outputs;
  for (int t = 0; t < 40; ++t) {
    auto reports =
        runtime.ExecuteWithSharedBudget("ages", {mean_q, var_q}, 1.0);
    ASSERT_TRUE(reports.ok());
    mean_outputs.push_back((*reports)[0].output[0]);
    var_outputs.push_back((*reports)[1].output[0]);
  }
  double mean_std = stats::StdDev(mean_outputs);
  double var_std = stats::StdDev(var_outputs);
  // Output ranges differ by 37.5x; equalised allocation should bring the
  // noise std-devs within a small factor of each other (block-output
  // variation adds a little on top of the Laplace noise).
  EXPECT_LT(std::max(mean_std, var_std) / std::min(mean_std, var_std), 3.0);
}

TEST_F(GuptModesTest, PerDimensionAccountingChargesDeclaredEpsilon) {
  // Multi-output query under paper-mode accounting: noise per dim at the
  // full declared epsilon, ledger charged the declared epsilon.
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::HistogramQuery(0, 4, 0.0, 100.0);
  spec.epsilon = 2.0;
  spec.accounting = BudgetAccounting::kPerDimension;
  spec.range = OutputRangeSpec::Tight(std::vector<Range>(4, Range{0.0, 1.0}));
  auto report = runtime.Execute("ages", spec);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->epsilon_spent, 2.0);
  EXPECT_DOUBLE_EQ(report->epsilon_saf_per_dim, 2.0);  // not divided by 4
}

TEST_F(GuptModesTest, WideOutputSplitsBudgetAcrossTwentyDims) {
  // Theorem 1 at scale: a 20-dimensional output gets eps/20 per dimension,
  // and the per-dimension noise scale reflects it exactly.
  Rng rng(31);
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    Row row(20);
    for (double& x : row) x = rng.UniformDouble(0.0, 1.0);
    rows.push_back(std::move(row));
  }
  DatasetOptions opts;
  opts.total_epsilon = 100.0;
  ASSERT_TRUE(
      manager_.Register("wide", Dataset::Create(std::move(rows)).value(), opts)
          .ok());
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanAllDimsQuery(20);
  spec.epsilon = 10.0;
  spec.range = OutputRangeSpec::Tight(std::vector<Range>(20, Range{0.0, 1.0}));
  spec.block_size = 100;  // 40 blocks
  auto report = runtime.Execute("wide", spec);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->epsilon_saf_per_dim, 0.5);  // 10 / 20
  ASSERT_EQ(report->output.size(), 20u);
  // Noise scale per dim = 1 / (40 * 0.5) = 0.05; outputs hug 0.5.
  for (double v : report->output) {
    EXPECT_NEAR(v, 0.5, 0.5);
  }
}

TEST_F(GuptModesTest, ReportCarriesTimingAndGeometry) {
  GuptRuntime runtime(&manager_, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 1.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  spec.block_size = 500;
  auto report = runtime.Execute("ages", spec);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->block_size, 500u);
  EXPECT_EQ(report->num_blocks, 40u);
  EXPECT_GT(report->elapsed.count(), 0);
  EXPECT_EQ(report->fallback_blocks, 0u);
  ASSERT_EQ(report->effective_ranges.size(), 1u);
  EXPECT_DOUBLE_EQ(report->effective_ranges[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(report->effective_ranges[0].hi, 150.0);
}

// The block mean, or NaN when the block holds a value above 0.7.
ProgramFactory NaNOnOutlier() {
  return MakeProgramFactory(
      "nan_on_outlier", 1, [](const Dataset& block) -> Result<Row> {
        const double* x = block.col(0);
        double sum = 0.0;
        for (std::size_t r = 0; r < block.num_rows(); ++r) {
          if (x[r] > 0.7) return Row{std::nan("")};
          sum += x[r];
        }
        return Row{sum / static_cast<double>(block.num_rows())};
      });
}

TEST(NaNBlockOutputTest, OneRecordCannotTurnTheReleaseIntoNaN) {
  // Neighbours: 2,000 rows of 0.5, and the same with one record of 0.75
  // whose block returns NaN. The clamp passes NaN through, so without the
  // fallback the second release is NaN in both modes and the record is
  // detectable with certainty.
  for (bool loose : {false, true}) {
    for (bool with_record : {false, true}) {
      std::vector<double> values(2000, 0.5);
      if (with_record) values[1234] = 0.75;
      DatasetManager manager;
      DatasetOptions opts;
      opts.total_epsilon = 10.0;
      ASSERT_TRUE(
          manager.Register("d", Dataset::FromColumn(values).value(), opts)
              .ok());
      GuptRuntime runtime(&manager, GuptOptions{});
      QuerySpec spec;
      spec.program = NaNOnOutlier();
      spec.epsilon = 1.0;
      spec.range = loose ? OutputRangeSpec::Loose({Range{0.0, 1.0}})
                         : OutputRangeSpec::Tight({Range{0.0, 1.0}});
      auto report = runtime.Execute("d", spec);
      ASSERT_TRUE(report.ok()) << report.status();
      const std::string what = std::string(loose ? "loose" : "tight") +
                               (with_record ? " with" : " without");
      ASSERT_EQ(report->output.size(), 1u);
      EXPECT_TRUE(std::isfinite(report->output[0]))
          << what << ": " << report->output[0];
      EXPECT_EQ(report->fallback_blocks, with_record ? 1u : 0u) << what;
    }
  }
}

}  // namespace
}  // namespace gupt
