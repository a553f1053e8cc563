// Property sweep over the sample-and-aggregate noise calibration: for any
// (block count, gamma, epsilon, range width), the empirical noise spread
// must match the analytic scale, and the released value must stay centered
// on the clamped average.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/sample_aggregate.h"
#include "statutil.h"

namespace gupt {
namespace {

// Pre-registered base seed (see tests/statutil/statutil.h): each sweep
// shape samples a distinct deterministic stream of it, tolerances are
// level-kAlpha standard-error bounds, and kAlpha bounds the a-priori
// chance that any one shape's stream is unlucky.
constexpr std::uint64_t kSafSweepSeed = 0x5af5feeb01ULL;
constexpr double kAlpha = 1e-6;

double ZTwoSided() { return statutil::NormalQuantile(1.0 - kAlpha / 2.0); }

struct SafShape {
  std::size_t num_blocks;
  std::size_t gamma;
  double epsilon;
  double width;
};

class SafNoiseSweep : public ::testing::TestWithParam<SafShape> {};

TEST_P(SafNoiseSweep, EmpiricalNoiseMatchesAnalyticScale) {
  const SafShape& shape = GetParam();
  Rng rng(kSafSweepSeed, shape.num_blocks * 31 + shape.gamma);
  std::vector<Row> outputs(shape.num_blocks, Row{shape.width / 2.0});
  AggregateOptions opts;
  opts.epsilon_per_dim = shape.epsilon;
  opts.output_ranges = {Range{0.0, shape.width}};
  opts.gamma = shape.gamma;

  const double analytic_scale =
      AggregationNoiseScale(shape.width, shape.num_blocks, shape.gamma,
                            shape.epsilon)
          .value();
  const double center = shape.width / 2.0;
  double abs_sum = 0.0, sum = 0.0;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    double out =
        AggregateBlockOutputs(outputs, opts, &rng).value().output[0];
    abs_sum += std::fabs(out - center);
    sum += out;
  }
  // E|Laplace(b)| = b with sd(|Laplace(b)|) = b, so the normalised
  // absolute spread has sd 1/sqrt(trials); the sample mean of the release
  // has sd b*sqrt(2/trials). Both tolerances are level-kAlpha bounds
  // (the previous hand-tuned 0.05 and 23-sigma bounds respectively).
  EXPECT_NEAR(abs_sum / trials / analytic_scale, 1.0,
              ZTwoSided() / std::sqrt(1.0 * trials));
  EXPECT_NEAR(sum / trials, center,
              ZTwoSided() * analytic_scale * std::sqrt(2.0 / trials));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SafNoiseSweep,
    ::testing::Values(SafShape{1, 1, 1.0, 1.0}, SafShape{8, 1, 0.5, 10.0},
                      SafShape{64, 1, 2.0, 100.0}, SafShape{16, 4, 1.0, 1.0},
                      SafShape{128, 8, 0.1, 50.0},
                      SafShape{32, 2, 10.0, 1000.0}));

// Fuzz the ledger parser with malformed inputs: none may crash, none may
// leave partial spending that the caller did not ask for... (garbage after
// valid lines still applies the valid prefix — the caller treats any error
// as fatal and discards the manager, which the tests model by checking
// only for non-crash + error status).
struct LedgerGarbage {
  const char* text;
  // When set, part of the error message: the rule the case must reach.
  const char* rule = nullptr;
};

// Test names show the text alone.
void PrintTo(const LedgerGarbage& garbage, std::ostream* os) {
  *os << ::testing::PrintToString(garbage.text);
}

class LedgerFuzzSweep : public ::testing::TestWithParam<LedgerGarbage> {};

}  // namespace
}  // namespace gupt

#include "data/budget_store.h"

namespace gupt {
namespace {

TEST_P(LedgerFuzzSweep, GarbageNeverCrashesAndErrors) {
  DatasetManager manager;
  DatasetOptions opts;
  opts.total_epsilon = 5.0;
  ASSERT_TRUE(
      manager
          .Register("alpha", Dataset::FromColumn({1.0, 2.0}).value(), opts)
          .ok());
  const Status status = RestoreBudgets(&manager, GetParam().text);
  EXPECT_FALSE(status.ok());
  if (GetParam().rule != nullptr) {
    EXPECT_NE(status.message().find(GetParam().rule), std::string::npos)
        << status;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Garbage, LedgerFuzzSweep,
    ::testing::Values(
        "", "x", "gupt-ledger v2\n", "gupt-ledger v1\ndataset\n",
        "gupt-ledger v1\ndataset alpha total notanumber\n",
        "gupt-ledger v1\ndataset alpha total 5\ncharge\n",
        "gupt-ledger v1\ndataset alpha total 5\ncharge abc label\n",
        "gupt-ledger v1\ndataset missing total 5\n",
        "gupt-ledger v1\ndataset alpha total 4.9\n",
        "gupt-ledger v1\ndataset alpha total 5\ncharge 99 too much\n",
        "gupt-ledger v1\ncharge 1 orphan before dataset\n",
        // Journal records (data/budget_store.h), each with the rule it is
        // there for: c809ca69 is the CRC-32 of "alpha 1 x", and so on, so
        // only the first and third fail on the checksum.
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record 00000000 alpha 1 x\n",
                      "checksum mismatch at line 3"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record c809ca6 alpha 1 x\n",
                      "malformed ledger record at line 3"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record C809CA69 alpha 1 x\n",
                      "checksum mismatch at line 3"},
        LedgerGarbage{"gupt-ledger v1\nrecord c809ca69 alpha 1 x\n",
                      "before its dataset line"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record 7fc71d7e missing 1 x\n",
                      "no dataset registered as: missing"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record 6f3b9b61 alpha 99 too much\n",
                      "exceeds remaining budget"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record 6c326928 alpha abc label\n",
                      "malformed ledger record epsilon at line 3"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record c809ca69 alpha 1 x\n"
                      "charge 1 v1 line after a record\n",
                      "malformed ledger record at line 4"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record c809ca69 alpha 1 x\n"
                      "# comment after a record\n",
                      "malformed ledger record at line 4"},
        LedgerGarbage{"gupt-ledger v1\ndataset alpha total 5\n"
                      "record c809ca69 alpha 1 xX",
                      "lost its newline at line 3"}));

}  // namespace
}  // namespace gupt
