#include "exec/computation_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/vec.h"
#include "obs/metrics.h"

namespace gupt {
namespace {

Dataset Counting(std::size_t n) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) rows.push_back({static_cast<double>(i)});
  return Dataset::Create(std::move(rows)).value();
}

ProgramFactory BlockMean() {
  return MakeProgramFactory("block_mean", 1,
                            [](const Dataset& block) -> Result<Row> {
                              GUPT_ASSIGN_OR_RETURN(auto col, block.Column(0));
                              return Row{stats::Mean(col)};
                            });
}

// A random disjoint partition of `data` into `num_blocks` blocks.
BlockSet Partition(const Dataset& data, std::size_t num_blocks) {
  Rng rng(1);
  return PartitionDisjointView(data, num_blocks, &rng).value();
}

// One single-row block per row of `data`, in row order.
BlockSet RowBlocks(const Dataset& data) {
  BlockSet set;
  set.source = data;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    set.rows.push_back(i);
    set.slices.push_back(BlockSlice{i, 1});
  }
  return set;
}

TEST(ComputationManagerTest, SequentialExecutesEveryBlock) {
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report = manager.ExecuteOnBlocks(BlockMean(), Partition(Counting(20), 4),
                                        Row{0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->runs.size(), 4u);
  EXPECT_EQ(report->fallback_count, 0u);
  // Block means average to the global mean for a balanced partition.
  std::vector<Row> outputs = report->Outputs();
  double sum = 0.0;
  for (const Row& o : outputs) sum += o[0];
  EXPECT_NEAR(sum / 4.0, 9.5, 1e-9);
}

TEST(ComputationManagerTest, ParallelMatchesSequentialOutputs) {
  BlockSet blocks = Partition(Counting(100), 10);
  ComputationManager sequential(nullptr, ChamberPolicy{});
  ThreadPool pool(4);
  ComputationManager parallel(&pool, ChamberPolicy{});
  auto a = sequential.ExecuteOnBlocks(BlockMean(), blocks, Row{0.0});
  auto b = parallel.ExecuteOnBlocks(BlockMean(), blocks, Row{0.0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same blocks, deterministic program: identical per-block outputs in order.
  EXPECT_EQ(a->Outputs(), b->Outputs());
}

TEST(ComputationManagerTest, CountsFallbacks) {
  // Blocks whose first value is even fail; the rest succeed.
  auto flaky = MakeProgramFactory(
      "flaky", 1, [](const Dataset& block) -> Result<Row> {
        if (static_cast<int>(block.row(0)[0]) % 2 == 0) {
          return Status::NumericalError("even block");
        }
        return Row{1.0};
      });
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report =
      manager.ExecuteOnBlocks(flaky, RowBlocks(Counting(4)), Row{-1.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fallback_count, 2u);
  EXPECT_EQ(report->Outputs()[0], (Row{-1.0}));
  EXPECT_EQ(report->Outputs()[1], (Row{1.0}));
}

TEST(ComputationManagerTest, NaNOutputIsAFallback) {
  // The clamp passes NaN through, so a NaN block output would turn the
  // release into NaN: it gets the fallback and counts as one. An infinite
  // output is left to the clamp.
  const double inf = std::numeric_limits<double>::infinity();
  auto program = MakeProgramFactory(
      "nan_on_one", 2, [inf](const Dataset& block) -> Result<Row> {
        const double x = block.row(0)[0];
        if (x == 1.0) return Row{0.0, std::nan("")};
        if (x == 2.0) return Row{inf, 0.0};
        return Row{x, x};
      });
  obs::Counter* fallbacks = obs::MetricsRegistry::Get().GetCounter(
      "gupt_exec_blocks_total", "Block executions by outcome.",
      {{"outcome", "fallback"}});
  const double before = fallbacks->Value();
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report = manager.ExecuteOnBlocks(program, RowBlocks(Counting(3)),
                                        Row{-1.0, -1.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fallback_count, 1u);
  EXPECT_EQ(fallbacks->Value() - before, 1.0);
  EXPECT_EQ(report->Outputs()[0], (Row{0.0, 0.0}));
  EXPECT_TRUE(report->runs[1].used_fallback);
  EXPECT_EQ(report->runs[1].program_status.code(),
            StatusCode::kNumericalError);
  EXPECT_EQ(report->Outputs()[1], (Row{-1.0, -1.0}));
  EXPECT_FALSE(report->runs[2].used_fallback);
  EXPECT_EQ(report->Outputs()[2], (Row{inf, 0.0}));
}

TEST(ComputationManagerTest, EmptyPlanRejected) {
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report = manager.ExecuteOnBlocks(BlockMean(), BlockSet{}, Row{0.0});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().message(), "block set has no blocks");
}

TEST(ComputationManagerTest, AggregatesPolicyViolationCounts) {
  class Noisy final : public AnalysisProgram {
   public:
    Result<Row> Run(const Dataset&) override { return Row{0.0}; }
    Result<Row> RunWithServices(const Dataset&,
                                ChamberServices* services) override {
      (void)services->OpenNetworkConnection("x");
      return Row{0.0};
    }
    std::size_t output_dims() const override { return 1; }
    std::string name() const override { return "noisy"; }
  };
  ProgramFactory factory = [] { return std::make_unique<Noisy>(); };
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report =
      manager.ExecuteOnBlocks(factory, RowBlocks(Counting(3)), Row{0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->policy_violation_count, 3u);
}

}  // namespace
}  // namespace gupt
