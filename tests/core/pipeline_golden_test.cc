// Golden outputs for the staged query pipeline.
//
// The pipeline refactor (monolithic GuptRuntime -> QueryPipeline stages)
// must be invisible in the released values: for a fixed seed, every mode
// of the runtime must produce bit-identical outputs to the pre-refactor
// implementation. These constants were captured from that implementation;
// EXPECT_EQ on doubles asserts exact bit equality, so any change to the
// RNG consumption order, stage ordering, or arithmetic shows up here.
//
// Each scenario builds its own manager + runtime so it consumes a fresh
// fork of the default-seeded root RNG, making the values independent of
// test execution order.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/linear_regression.h"
#include "analytics/queries.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/gupt.h"
#include "data/synthetic.h"
#include "dp/amplification.h"
#include "exec/chamber_pool.h"
#include "obs/metrics.h"

namespace gupt {
namespace {

Dataset AgesLike(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(vec::ClampScalar(rng.Gaussian(38.0, 12.0), 0.0, 150.0));
  }
  return Dataset::FromColumn(values).value();
}

/// Registers "ds": 20000 clamped ages under `budget`.
void RegisterAges(DatasetManager& manager, double budget,
                  bool with_input_ranges = false, double aged_fraction = 0.0) {
  DatasetOptions options;
  options.total_epsilon = budget;
  options.aged_fraction = aged_fraction;
  if (with_input_ranges) {
    options.input_ranges = std::vector<Range>{{0.0, 150.0}};
  }
  ASSERT_TRUE(manager.Register("ds", AgesLike(20000, 42), options).ok());
}

TEST(PipelineGoldenTest, TightMode) {
  DatasetManager manager;
  RegisterAges(manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 2.0);
  EXPECT_EQ(report->epsilon_saf_per_dim, 2.0);
  EXPECT_EQ(report->block_size, 377u);
  EXPECT_EQ(report->num_blocks, 54u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 37.782203079929658);
  ASSERT_EQ(report->effective_ranges.size(), 1u);
  EXPECT_EQ(report->effective_ranges[0].lo, 0.0);
  EXPECT_EQ(report->effective_ranges[0].hi, 150.0);
}

TEST(PipelineGoldenTest, LooseMode) {
  DatasetManager manager;
  RegisterAges(manager, 10.0);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Loose({Range{0.0, 300.0}});
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 2.0);
  EXPECT_EQ(report->epsilon_saf_per_dim, 1.0);
  EXPECT_EQ(report->block_size, 377u);
  EXPECT_EQ(report->num_blocks, 54u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 38.362616495839895);
  ASSERT_EQ(report->effective_ranges.size(), 1u);
  EXPECT_EQ(report->effective_ranges[0].lo, 33.815809347560133);
  EXPECT_EQ(report->effective_ranges[0].hi, 130.36127804428008);
}

TEST(PipelineGoldenTest, HelperMode) {
  DatasetManager manager;
  RegisterAges(manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Helper(
      [](const std::vector<Range>& in) -> Result<std::vector<Range>> {
        return std::vector<Range>{in[0]};
      });
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 2.0);
  EXPECT_EQ(report->epsilon_saf_per_dim, 1.0);
  EXPECT_EQ(report->block_size, 377u);
  EXPECT_EQ(report->num_blocks, 54u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 38.099662468328873);
  ASSERT_EQ(report->effective_ranges.size(), 1u);
  EXPECT_EQ(report->effective_ranges[0].lo, 29.839808348713699);
  EXPECT_EQ(report->effective_ranges[0].hi, 46.135843840460346);
}

TEST(PipelineGoldenTest, ColumnarRefactorPreservesLedgerCharges) {
  // The goldens above pin the released values; this pins the *ledger* to
  // the same precision. The columnar partitioner and zero-copy block views
  // must not move a single bit of the accountant state.
  DatasetManager manager;
  RegisterAges(manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  ASSERT_TRUE(runtime.Execute("ds", spec).ok());

  auto snapshots = manager.BudgetSnapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].dataset, "ds");
  EXPECT_EQ(snapshots[0].budget.total_epsilon, 10.0);
  EXPECT_EQ(snapshots[0].budget.spent_epsilon, 2.0);
  EXPECT_EQ(snapshots[0].budget.remaining_epsilon(), 8.0);
  ASSERT_EQ(snapshots[0].budget.charges.size(), 1u);
  EXPECT_EQ(snapshots[0].budget.charges[0].epsilon, 2.0);
}

TEST(PipelineGoldenTest, PooledChambersAreBitIdenticalToInThread) {
  // Shipping blocks to pre-warmed pool workers over the pipe protocol must
  // be invisible in the release: same seed, same query, same golden value
  // as TightMode above — byte-for-byte, because the worker computes on the
  // identical column bytes and only the trusted parent draws noise.
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(
      [](const std::string& token) -> Result<ProgramFactory> {
        if (token != "mean0") {
          return Status::InvalidArgument("unknown token: " + token);
        }
        return analytics::MeanQuery(0);
      });
  ASSERT_TRUE(pool.Start().ok());

  DatasetManager manager;
  RegisterAges(manager, 10.0, /*with_input_ranges=*/true);
  GuptOptions options;
  options.chamber_pool = &pool;
  GuptRuntime runtime(&manager, options);
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.pool_program = "mean0";
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->block_size, 377u);
  EXPECT_EQ(report->num_blocks, 54u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 37.782203079929658);  // == TightMode golden
  EXPECT_EQ(report->fallback_blocks, 0u);

  // Every block really went through the pool.
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases, 54u);
  EXPECT_EQ(stats.respawns, 0u);
}

TEST(PipelineGoldenTest, PooledMultiColumnReleaseIsBitIdenticalToInThread) {
  // The golden above gathers one column per block. OLS on the
  // life-sciences table gathers all eleven, so every column of each block
  // must land in its place in the worker's segment for the two releases
  // to agree bit for bit.
  analytics::LinearRegressionOptions ols;
  ols.feature_dims = {0, 1, 2};
  ols.target_dim = 3;
  auto release = [&ols](ChamberPool* pool) -> Result<QueryReport> {
    synthetic::LifeSciencesOptions gen;
    gen.num_rows = 4000;
    DatasetManager manager;
    DatasetOptions options;
    options.total_epsilon = 10.0;
    GUPT_RETURN_IF_ERROR(
        manager.Register("ls", synthetic::LifeSciences(gen).value(), options));
    GuptOptions runtime_options;
    runtime_options.chamber_pool = pool;
    GuptRuntime runtime(&manager, runtime_options);
    QuerySpec spec;
    spec.program = analytics::LinearRegressionQuery(ols);
    if (pool != nullptr) spec.pool_program = "ols";
    spec.epsilon = 2.0;
    spec.block_size = 200;
    spec.range = OutputRangeSpec::Tight(std::vector<Range>(4, {-5.0, 5.0}));
    return runtime.Execute("ls", spec);
  };

  auto in_thread = release(nullptr);
  ASSERT_TRUE(in_thread.ok()) << in_thread.status();

  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(
      [&ols](const std::string& token) -> Result<ProgramFactory> {
        if (token != "ols") {
          return Status::InvalidArgument("unknown token: " + token);
        }
        return analytics::LinearRegressionQuery(ols);
      });
  ASSERT_TRUE(pool.Start().ok());
  obs::Counter* copied = obs::MetricsRegistry::Get().GetCounter(
      "gupt_data_partition_copied_bytes_total", "");
  const double copied_before = copied->Value();
  auto pooled = release(&pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status();

  EXPECT_EQ(pooled->num_blocks, 20u);
  EXPECT_EQ(pooled->fallback_blocks, 0u);
  ASSERT_EQ(pooled->output.size(), 4u);
  EXPECT_EQ(pooled->output, in_thread->output);
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases, 20u);
  EXPECT_EQ(stats.respawns, 0u);
  // Each lease gathered the block's 11 columns into its worker's segment
  // and shipped only the 21-byte header and the token.
  EXPECT_EQ(copied->Value() - copied_before, 20.0 * 200 * 11 * sizeof(double));
  EXPECT_EQ(stats.shipped_bytes, 20u * (21 + 3));
}

TEST(PipelineGoldenTest, GammaResamplingWithExplicitBlockSize) {
  DatasetManager manager;
  RegisterAges(manager, 10.0);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 1.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  spec.block_size = 200;
  spec.gamma = 4;
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 1.0);
  EXPECT_EQ(report->epsilon_saf_per_dim, 1.0);
  EXPECT_EQ(report->block_size, 200u);
  EXPECT_EQ(report->num_blocks, 400u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 37.545740047147525);
}

TEST(PipelineGoldenTest, AmplificationOffIsTheHistoricalPathBitForBit) {
  // Amplification lands as strictly opt-in: a spec without a sampling rate
  // (the default) must release the exact TightMode golden AND charge the exact
  // historical ledger — same RNG consumption, same arithmetic, same bits.
  DatasetManager manager;
  RegisterAges(manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 2.0);
  EXPECT_EQ(report->output[0], 37.782203079929658);  // == TightMode golden
  auto snapshots = manager.BudgetSnapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].budget.spent_epsilon, 2.0);
}

TEST(PipelineGoldenTest, AmplificationOnSubsamplesAndDiscountsTheLedger) {
  // Amplification CHANGES THE MECHANISM: the query runs on a
  // Bernoulli(0.25) subsample (so the released value differs from the
  // full-data TightMode golden — it is pinned to its own golden below),
  // the block geometry is laid out against the expected subsample size
  // rate * n = 5000, noise stays calibrated at the declared epsilon, and
  // the ledger debit drops to ln(1 + 0.25 * (e^2 - 1)).
  DatasetManager manager;
  RegisterAges(manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  spec.amplification_rate = 0.25;
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  // Default geometry of the expected subsample: beta = 5000 / 5000^0.4 =
  // 166, l = ceil(5000 / 166) = 31, fixed at plan time (data-independent).
  EXPECT_EQ(report->block_size, 166u);
  EXPECT_EQ(report->num_blocks, 31u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 36.559663982947015);  // amplified golden
  EXPECT_EQ(report->sampling_rate, 0.25);
  EXPECT_EQ(report->epsilon_raw, 2.0);
  EXPECT_EQ(report->epsilon_spent, 0.95445859279324052);
  EXPECT_EQ(report->epsilon_spent, dp::AmplifiedEpsilon(2.0, 0.25).value());
  auto snapshots = manager.BudgetSnapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].budget.spent_epsilon, 0.95445859279324052);
}

TEST(PipelineGoldenTest, AmplificationAtFullRateChargesExactlyEpsilon) {
  // rate == 1.0 skips the subsample draw (no extra RNG consumption), so
  // the amplified charge degenerates to the declared epsilon EXACTLY (the
  // identity is a bit-exact early return, not a computed log), and the
  // release matches the unamplified run of the identical query bit-for-bit.
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 2.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});

  DatasetManager off_manager;
  RegisterAges(off_manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime off_runtime(&off_manager, GuptOptions{});
  auto off = off_runtime.Execute("ds", spec);
  ASSERT_TRUE(off.ok()) << off.status();

  DatasetManager on_manager;
  RegisterAges(on_manager, 10.0, /*with_input_ranges=*/true);
  GuptRuntime on_runtime(&on_manager, GuptOptions{});
  spec.amplification_rate = 1.0;
  auto on = on_runtime.Execute("ds", spec);
  ASSERT_TRUE(on.ok()) << on.status();

  EXPECT_EQ(on->sampling_rate, 1.0);
  EXPECT_EQ(on->epsilon_spent, 2.0);
  EXPECT_EQ(on->epsilon_spent, off->epsilon_spent);
  ASSERT_EQ(on->output.size(), off->output.size());
  EXPECT_EQ(on->output[0], off->output[0]);
}

TEST(PipelineGoldenTest, MultiDimensionalOutput) {
  std::vector<Row> rows;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(
        {rng.UniformDouble(0.0, 1.0), rng.UniformDouble(0.0, 10.0)});
  }
  DatasetManager manager;
  DatasetOptions options;
  options.total_epsilon = 10.0;
  ASSERT_TRUE(
      manager.Register("d2", Dataset::Create(std::move(rows)).value(), options)
          .ok());
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanAllDimsQuery(2);
  spec.epsilon = 4.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 1.0}, Range{0.0, 10.0}});
  auto report = runtime.Execute("d2", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 4.0);
  EXPECT_EQ(report->epsilon_saf_per_dim, 2.0);
  EXPECT_EQ(report->block_size, 166u);
  EXPECT_EQ(report->num_blocks, 31u);
  ASSERT_EQ(report->output.size(), 2u);
  EXPECT_EQ(report->output[0], 0.4989101472481573);
  EXPECT_EQ(report->output[1], 4.9387923701881196);
}

TEST(PipelineGoldenTest, PerDimensionAccounting) {
  DatasetManager manager;
  RegisterAges(manager, 10.0);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 1.0;
  spec.accounting = BudgetAccounting::kPerDimension;
  spec.range = OutputRangeSpec::Loose({Range{0.0, 300.0}});
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 1.0);
  EXPECT_EQ(report->epsilon_saf_per_dim, 0.5);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_EQ(report->output[0], 38.678957383447191);
}

TEST(PipelineGoldenTest, SharedBudgetBatch) {
  DatasetManager manager;
  RegisterAges(manager, 4.0);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec mean;
  mean.program = analytics::MeanQuery(0);
  mean.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  mean.block_size = 200;
  QuerySpec variance;
  variance.program = analytics::VarianceQuery(0);
  variance.range = OutputRangeSpec::Tight({Range{0.0, 22500.0}});
  variance.block_size = 200;
  auto reports = runtime.ExecuteWithSharedBudget("ds", {mean, variance}, 2.0);
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].epsilon_spent, 0.013245033112582781);
  EXPECT_EQ((*reports)[0].epsilon_saf_per_dim, 0.013245033112582781);
  EXPECT_EQ((*reports)[0].num_blocks, 100u);
  EXPECT_EQ((*reports)[0].output[0], 16.513719298841735);
  EXPECT_EQ((*reports)[1].epsilon_spent, 1.9867549668874172);
  EXPECT_EQ((*reports)[1].epsilon_saf_per_dim, 1.9867549668874172);
  EXPECT_EQ((*reports)[1].num_blocks, 100u);
  EXPECT_EQ((*reports)[1].output[0], -140.44464756351971);
  // The allocator splits exactly the requested batch budget.
  EXPECT_EQ((*reports)[0].epsilon_spent + (*reports)[1].epsilon_spent, 2.0);
}

TEST(PipelineGoldenTest, AccuracyGoalOnAgedSlice) {
  DatasetManager manager;
  RegisterAges(manager, 100.0, /*with_input_ranges=*/false,
               /*aged_fraction=*/0.1);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.accuracy_goal = AccuracyGoal{0.9, 0.1};
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  spec.block_size = 400;
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 3.9130039391299194);
  EXPECT_EQ(report->block_size, 400u);
  EXPECT_EQ(report->num_blocks, 45u);
  EXPECT_EQ(report->output[0], 36.954527585476654);
}

TEST(PipelineGoldenTest, OptimizedBlockSizeFromAgedPlanner) {
  DatasetManager manager;
  RegisterAges(manager, 100.0, /*with_input_ranges=*/false,
               /*aged_fraction=*/0.1);
  GuptRuntime runtime(&manager, GuptOptions{});
  QuerySpec spec;
  spec.program = analytics::MeanQuery(0);
  spec.epsilon = 1.0;
  spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
  spec.optimize_block_size = true;
  auto report = runtime.Execute("ds", spec);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, 1.0);
  EXPECT_EQ(report->block_size, 1u);
  EXPECT_EQ(report->num_blocks, 18000u);
  EXPECT_EQ(report->output[0], 38.035159136672107);
}

}  // namespace
}  // namespace gupt
