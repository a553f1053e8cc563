// Pre-registered statistical acceptance suite for amplification by
// sampling (dp/amplification.h, docs/amplification.md).
//
// Three layers of evidence, per the tests/statutil/ conventions
// (pre-registered named seeds, alpha = 1e-6, accept/power twins):
//
//  1. A closed-form unit grid: epsilon'(rate, epsilon) agrees with
//     ln(1 + rate * (e^eps - 1)) to 1e-12 relative error across eleven
//     decades of epsilon, including the rate -> 1 limit (bit-exact
//     identity) and the epsilon -> 0 limit (epsilon' -> rate * epsilon).
//  2. A KS acceptance test on the real pipeline: with a declared sampling
//     rate, the release runs on a Bernoulli(rate) subsample
//     partitioned into a plan-time-fixed block count, and its noise is
//     distributed exactly as the raw-epsilon Laplace calibration
//     predicts — the ledger debit shrinks, the noise does not.
//  3. A power twin: a deliberately mis-calibrated variant that noises at
//     the *amplified* epsilon' (the bug this suite exists to catch —
//     charging less AND noising less would break the DP guarantee) is
//     rejected by the same KS test at alpha = 1e-6.
//
// Plus the soundness guard rails from the review of the original design:
// amplification with an out-of-range rate, with resampling (gamma > 1),
// in helper mode, or in shared-budget batches is refused before any
// budget is charged.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/queries.h"
#include "core/gupt.h"
#include "core/sample_aggregate.h"
#include "dp/amplification.h"
#include "statutil.h"

namespace gupt {
namespace {

// Pre-registered: seed and alpha were fixed before observing any outcome
// (tests/statutil/ convention). alpha = 1e-6 per assertion.
constexpr double kAlpha = 1e-6;
constexpr std::uint64_t kNoiseSeed = 0x9a3f17c2u;  // "amplify-noise-1"

// ---------------------------------------------------------------------------
// 1. Closed-form unit grid, 1e-12.
// ---------------------------------------------------------------------------

TEST(AmplificationGridTest, MatchesClosedFormTo1e12) {
  const double rates[] = {1e-6, 1e-4, 0.003, 0.01, 0.1,
                          0.25, 0.5,  0.9,   0.999};
  const double epsilons[] = {1e-9, 1e-6, 1e-3, 0.01, 0.1,
                             0.5,  1.0,  2.0,  5.0,  10.0};
  for (double rate : rates) {
    for (double eps : epsilons) {
      auto amplified = dp::AmplifiedEpsilon(eps, rate);
      ASSERT_TRUE(amplified.ok()) << amplified.status();
      // Long-double reference keeps ~18 significant digits, so the 1e-12
      // relative bound genuinely tests the double-precision formula.
      const long double exact =
          logl(1.0L + static_cast<long double>(rate) *
                          (expl(static_cast<long double>(eps)) - 1.0L));
      const double tolerance =
          1e-12 * std::max(1.0, static_cast<double>(exact));
      EXPECT_NEAR(amplified.value(), static_cast<double>(exact), tolerance)
          << "rate=" << rate << " eps=" << eps;
      // Amplification never increases the charge.
      EXPECT_LE(amplified.value(), eps);
      EXPECT_GT(amplified.value(), 0.0);
    }
  }
}

TEST(AmplificationGridTest, RateOneIsBitExactIdentity) {
  for (double eps : {1e-12, 1e-3, 0.1, 0.5, 1.0, 2.0, 7.5}) {
    auto amplified = dp::AmplifiedEpsilon(eps, 1.0);
    ASSERT_TRUE(amplified.ok());
    EXPECT_EQ(amplified.value(), eps);  // exact, not just close
  }
}

TEST(AmplificationGridTest, SmallEpsilonLimitIsRateTimesEpsilon) {
  // d/deps ln(1 + rate*(e^eps - 1)) at eps = 0 is exactly rate, so for
  // eps -> 0 the charge must approach rate * eps with vanishing relative
  // error. log1p/expm1 keep this exact to first order even at eps = 1e-12.
  for (double rate : {1e-4, 0.003, 0.1, 0.5}) {
    for (double eps : {1e-12, 1e-9, 1e-6}) {
      auto amplified = dp::AmplifiedEpsilon(eps, rate);
      ASSERT_TRUE(amplified.ok());
      EXPECT_NEAR(amplified.value() / (rate * eps), 1.0, 1e-5)
          << "rate=" << rate << " eps=" << eps;
    }
  }
}

TEST(AmplificationGridTest, RejectsInvalidArguments) {
  EXPECT_FALSE(dp::AmplifiedEpsilon(0.0, 0.5).ok());
  EXPECT_FALSE(dp::AmplifiedEpsilon(-1.0, 0.5).ok());
  EXPECT_FALSE(dp::AmplifiedEpsilon(1.0, 0.0).ok());
  EXPECT_FALSE(dp::AmplifiedEpsilon(1.0, 1.5).ok());
  EXPECT_FALSE(dp::AmplifiedEpsilon(1.0, -0.1).ok());
}

// ---------------------------------------------------------------------------
// 2 + 3. KS acceptance on the real pipeline, and the mis-calibrated twin.
// ---------------------------------------------------------------------------

// Fixture: a constant-valued dataset makes the release's noise exactly
// observable. Every record is 40.0, so each block mean is 40.0 whatever
// subset of rows a block holds, and the clamped average is 40.0;
// released - 40.0 is then precisely the Laplace noise added by
// AggregateStage, with scale width / (l * eps_saf). The block count l is
// fixed at plan time from the expected subsample size rate * n, so the
// scale is a known constant even though the realised subsample varies.
constexpr double kValue = 40.0;
constexpr double kWidth = 100.0;        // declared range [0, 100]
constexpr std::size_t kRows = 500;
constexpr double kRate = 0.5;           // Bernoulli subsample rate
constexpr std::size_t kBlockSize = 50;  // n_mech = 250 -> l = 5 blocks
constexpr std::size_t kNumBlocks =
    static_cast<std::size_t>(kRows * kRate) / kBlockSize;
constexpr double kEpsilon = 0.5;        // raw per-query epsilon
constexpr int kSamples = 2000;

// The raw-epsilon Laplace scale the mechanism must keep using.
double RawScale() {
  return kWidth / (static_cast<double>(kNumBlocks) * kEpsilon);
}

QuerySpec ConstantMeanSpec(std::optional<double> amplification_rate) {
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = kEpsilon;
  spec.block_size = kBlockSize;
  spec.range = OutputRangeSpec::Tight({Range{0.0, kWidth}});
  spec.amplification_rate = amplification_rate;
  return spec;
}

std::vector<double> ReleasedNoise(std::optional<double> amplification_rate) {
  DatasetManager manager;
  DatasetOptions options;
  // Amplified, each query charges ~0.28; 2000 queries need ~562. The
  // budget is sized so an unamplified run (0.5 each) would also fit.
  options.total_epsilon = 2000.0;
  std::vector<double> constant(kRows, kValue);
  EXPECT_TRUE(
      manager.Register("const", Dataset::FromColumn(constant).value(), options)
          .ok());
  GuptOptions runtime_options;
  runtime_options.seed = kNoiseSeed;
  GuptRuntime runtime(&manager, runtime_options);
  std::vector<double> noise;
  noise.reserve(kSamples);
  QuerySpec spec = ConstantMeanSpec(amplification_rate);
  for (int i = 0; i < kSamples; ++i) {
    auto report = runtime.Execute("const", spec);
    EXPECT_TRUE(report.ok()) << report.status();
    if (!report.ok()) break;
    noise.push_back(report->output[0] - kValue);
  }
  return noise;
}

TEST(AmplificationStatisticalTest, ReleasedNoiseMatchesRawCalibration) {
  std::vector<double> noise = ReleasedNoise(kRate);
  ASSERT_EQ(noise.size(), static_cast<std::size_t>(kSamples));
  const double scale = RawScale();
  statutil::GofResult fit = statutil::KsTest(
      noise, [scale](double x) { return statutil::LaplaceCdf(x, 0.0, scale); },
      kAlpha);
  EXPECT_FALSE(fit.reject) << fit.Describe();
}

TEST(AmplificationStatisticalTest, FullRateReleaseIsBitIdenticalToOff) {
  // rate == 1.0 skips the subsample draw entirely, so with the same seed
  // a full-rate amplified query must release exactly the unamplified values
  // (and AmplifiedEpsilon(eps, 1) == eps makes the charge identical too).
  DatasetManager manager;
  DatasetOptions options;
  options.total_epsilon = 100.0;
  std::vector<double> constant(kRows, kValue);
  ASSERT_TRUE(
      manager.Register("const", Dataset::FromColumn(constant).value(), options)
          .ok());
  QuerySpec off = ConstantMeanSpec(std::nullopt);
  QuerySpec on = ConstantMeanSpec(1.0);
  for (int i = 0; i < 16; ++i) {
    GuptOptions runtime_options;
    runtime_options.seed = kNoiseSeed + static_cast<std::uint64_t>(i);
    GuptRuntime off_runtime(&manager, runtime_options);
    GuptRuntime on_runtime(&manager, runtime_options);
    auto off_report = off_runtime.Execute("const", off);
    auto on_report = on_runtime.Execute("const", on);
    ASSERT_TRUE(off_report.ok()) << off_report.status();
    ASSERT_TRUE(on_report.ok()) << on_report.status();
    EXPECT_EQ(off_report->output[0], on_report->output[0]) << "seed " << i;
    EXPECT_EQ(off_report->epsilon_spent, on_report->epsilon_spent);
  }
}

TEST(AmplificationStatisticalTest, MisCalibratedVariantIsRejected) {
  // The broken implementation this suite guards against: noising at the
  // amplified epsilon' while also charging epsilon'. Its Laplace scale is
  // width / (l * eps') — far wider than the correct raw calibration — so
  // the KS test against the raw-scale CDF must reject at alpha = 1e-6.
  auto amplified = dp::AmplifiedEpsilon(kEpsilon, kRate);
  ASSERT_TRUE(amplified.ok());
  AggregateOptions agg;
  agg.epsilon_per_dim = amplified.value();  // the mis-calibration
  agg.output_ranges = {Range{0.0, kWidth}};
  agg.gamma = 1;
  Rng rng(kNoiseSeed);
  Row averages{kValue};
  std::vector<double> noise;
  noise.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    auto noised = AddAggregationNoise(averages, agg, kNumBlocks, &rng);
    ASSERT_TRUE(noised.ok()) << noised.status();
    noise.push_back(noised->output[0] - kValue);
  }
  const double scale = RawScale();
  statutil::GofResult fit = statutil::KsTest(
      noise, [scale](double x) { return statutil::LaplaceCdf(x, 0.0, scale); },
      kAlpha);
  EXPECT_TRUE(fit.reject)
      << "epsilon'-noised variant passed the raw-epsilon KS test: "
      << fit.Describe();
}

TEST(AmplificationStatisticalTest, AmplifiedChargeIsExactOnTheLedger) {
  // The charge side of the same runs: each amplified query debits exactly
  // ln(1 + rate * (e^eps - 1)), summed over queries with no drift.
  DatasetManager manager;
  DatasetOptions options;
  options.total_epsilon = 100.0;
  std::vector<double> constant(kRows, kValue);
  ASSERT_TRUE(
      manager.Register("const", Dataset::FromColumn(constant).value(), options)
          .ok());
  GuptOptions runtime_options;
  runtime_options.seed = kNoiseSeed;
  GuptRuntime runtime(&manager, runtime_options);
  QuerySpec spec = ConstantMeanSpec(kRate);
  const double per_query = dp::AmplifiedEpsilon(kEpsilon, kRate).value();
  double expected_spent = 0.0;
  for (int i = 0; i < 32; ++i) {
    auto report = runtime.Execute("const", spec);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->epsilon_spent, per_query);
    EXPECT_EQ(report->epsilon_raw, kEpsilon);
    EXPECT_EQ(report->sampling_rate, kRate);
    expected_spent += per_query;
  }
  auto ds = manager.Get("const");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->accountant().Totals().spent_epsilon, expected_spent);
}

// ---------------------------------------------------------------------------
// Soundness guard rails: contexts in which amplification must be refused
// before any budget is charged.
// ---------------------------------------------------------------------------

class AmplificationRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetOptions options;
    options.total_epsilon = 100.0;
    std::vector<double> constant(kRows, kValue);
    ASSERT_TRUE(manager_
                    .Register("const", Dataset::FromColumn(constant).value(),
                              options)
                    .ok());
    GuptOptions runtime_options;
    runtime_options.seed = kNoiseSeed;
    runtime_ = std::make_unique<GuptRuntime>(&manager_, runtime_options);
  }

  /// Runs `spec`, expects InvalidArgument, and asserts the ledger was
  /// never touched.
  void ExpectRefusedUncharged(const QuerySpec& spec) {
    auto report = runtime_->Execute("const", spec);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << report.status();
    auto ds = manager_.Get("const");
    ASSERT_TRUE(ds.ok());
    EXPECT_EQ((*ds)->accountant().Totals().spent_epsilon, 0.0);
  }

  DatasetManager manager_;
  std::unique_ptr<GuptRuntime> runtime_;
};

TEST_F(AmplificationRejectionTest, RejectsOutOfRangeRates) {
  for (double bad : {0.0, -0.25, 1.5,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    ExpectRefusedUncharged(ConstantMeanSpec(bad));
  }
}

TEST_F(AmplificationRejectionTest, RejectsResampling) {
  // gamma > 1 would tie the block count to the realised subsample size,
  // breaking the fixed-geometry sensitivity argument.
  QuerySpec spec = ConstantMeanSpec(kRate);
  spec.gamma = 3;
  ExpectRefusedUncharged(spec);
}

TEST_F(AmplificationRejectionTest, RejectsHelperMode) {
  // Helper mode estimates input ranges from every record, not just the
  // subsample, so the release would no longer depend on the subsample
  // alone. The translator ignores its estimates: only the mode matters.
  QuerySpec spec = ConstantMeanSpec(kRate);
  spec.range = OutputRangeSpec::Helper(
      [](const std::vector<Range>&) -> Result<std::vector<Range>> {
        return std::vector<Range>{Range{0.0, kWidth}};
      },
      /*loose_input_ranges=*/{Range{0.0, kWidth}});
  ExpectRefusedUncharged(spec);
  // The unamplified twin runs and is charged: the rate alone causes the
  // refusal above.
  spec.amplification_rate.reset();
  auto report = runtime_->Execute("const", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, kEpsilon);
}

TEST_F(AmplificationRejectionTest, SharedBudgetBatchesRejectAmplification) {
  QuerySpec spec = ConstantMeanSpec(kRate);
  spec.epsilon.reset();  // shared-budget queries leave epsilon unset
  auto reports = runtime_->ExecuteWithSharedBudget("const", {spec}, 1.0);
  ASSERT_FALSE(reports.ok());
  EXPECT_EQ(reports.status().code(), StatusCode::kInvalidArgument)
      << reports.status();
  auto ds = manager_.Get("const");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->accountant().Totals().spent_epsilon, 0.0);
}

}  // namespace
}  // namespace gupt
