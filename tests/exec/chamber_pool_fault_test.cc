// Fault injection against the pre-warmed chamber pool: spawn failures at
// Start, lease-time parent-side refusals, worker crashes mid-lease, and
// injected reset failures. The invariant under test is the one the pool
// inherits from ProcessChamber (§6.2): worker misbehaviour of any kind
// degrades to the data-independent fallback — never an error, never a
// dropped block — and the privacy ledger is bit-identical to a fault-free
// run, because budget is charged at admission, before any chamber runs.

#include "exec/chamber_pool.h"

#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "service/gupt_service.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

using failpoints::Action;
using failpoints::CompiledIn;
using failpoints::Config;
using failpoints::ScopedFailpoint;

Config FireAlways(Action action = Action::kError) {
  Config config;
  config.every_nth = 1;
  config.action = action;
  return config;
}

Dataset OneColumn(std::vector<double> values) {
  return Dataset::FromColumn(values).value();
}

/// One block holding every row of `data`, in order.
BlockSet WholeBlock(const Dataset& data) {
  BlockSet set;
  set.source = data;
  set.rows.resize(data.num_rows());
  std::iota(set.rows.begin(), set.rows.end(), std::size_t{0});
  set.slices = {BlockSlice{0, data.num_rows()}};
  return set;
}

ProgramResolver SumResolver() {
  return [](const std::string& token) -> Result<ProgramFactory> {
    if (token != "sum") {
      return Status::InvalidArgument("unknown token: " + token);
    }
    return MakeProgramFactory("sum", 1,
                              [](const Dataset& block) -> Result<Row> {
                                double sum = 0.0;
                                const double* col = block.col(0);
                                for (std::size_t r = 0; r < block.num_rows();
                                     ++r) {
                                  sum += col[r];
                                }
                                return Row{sum};
                              });
  };
}

class ChamberPoolFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompiledIn()) {
      GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
    }
    failpoints::DisarmAll();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(ChamberPoolFaultTest, SpawnFaultAtStartFailsWhenNoWorkerSurvives) {
  ScopedFailpoint fp("exec.pool.spawn", FireAlways());
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(SumResolver());
  Status started = pool.Start();
  EXPECT_FALSE(started.ok());
  EXPECT_EQ(fp.fires(), 2u);
  EXPECT_EQ(pool.Stats().workers_alive, 0u);
}

TEST_F(ChamberPoolFaultTest, PartialSpawnFaultDegradesThenHealsAtLease) {
  // Every 2nd spawn fails: Start succeeds on the surviving worker, and the
  // dead slot is revived lazily at lease time once the failpoint is gone.
  Config config;
  config.every_nth = 2;
  ScopedFailpoint fp("exec.pool.spawn", config);
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(SumResolver());
  ASSERT_TRUE(pool.Start().ok());
  EXPECT_EQ(pool.Stats().workers_alive, 1u);

  failpoints::DisarmAll();
  Dataset data = OneColumn({1, 2});
  for (int i = 0; i < 3; ++i) {
    auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->output, (Row{3.0}));
  }
}

TEST_F(ChamberPoolFaultTest, LeaseErrorFaultFallsBackWithoutTouchingAWorker) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(SumResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3});

  ScopedFailpoint fp("exec.pool.lease", FireAlways(Action::kError));
  auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  EXPECT_TRUE(failpoints::IsInjected(run->program_status));
  EXPECT_EQ(fp.fires(), 1u);
  // The refusal happens parent-side, before any worker is leased.
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases, 0u);
  EXPECT_EQ(stats.respawns, 0u);

  failpoints::DisarmAll();
  auto healthy = pool.Execute("sum", WholeBlock(data), 0, Row{0.5});
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->output, (Row{6.0}));
}

TEST_F(ChamberPoolFaultTest, LeaseCrashFaultKillsWorkerAndRespawns) {
  // The crash action makes the leased worker _exit mid-request — the
  // parent sees EOF exactly as with a real SIGSEGV, substitutes the
  // fallback, and respawns the slot at the next lease.
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(SumResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3});

  {
    ScopedFailpoint fp("exec.pool.lease", FireAlways(Action::kCrash));
    auto run = pool.Execute("sum", WholeBlock(data), 0, Row{7.0});
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->used_fallback);
    EXPECT_EQ(run->output, (Row{7.0}));
    EXPECT_EQ(run->program_status.code(), StatusCode::kPolicyViolation);
    EXPECT_EQ(fp.fires(), 1u);
  }
  EXPECT_EQ(pool.Stats().workers_alive, 0u);

  auto next = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->used_fallback);
  EXPECT_EQ(next->output, (Row{6.0}));
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST_F(ChamberPoolFaultTest, ResetFaultKeepsTheAnswerButDiscardsTheWorker) {
  // An injected reset failure models a worker that answered correctly but
  // cannot be proven clean for reuse: the answer stands, the worker does
  // not.
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(SumResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({4, 5});

  {
    ScopedFailpoint fp("exec.pool.reset", FireAlways());
    auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->used_fallback);
    EXPECT_EQ(run->output, (Row{9.0}));
    EXPECT_EQ(fp.fires(), 1u);
  }
  ChamberPoolStats after = pool.Stats();
  EXPECT_EQ(after.workers_alive, 0u);
  EXPECT_EQ(after.resets, 0u);  // the lease ended in discard, not reset

  auto next = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->output, (Row{9.0}));
  EXPECT_EQ(pool.Stats().respawns, 1u);
}

// ---------------------------------------------------------------------------
// Service-level: crashing pooled workers must leave /budgetz bit-identical
// to a fault-free run of the same query sequence (satellite b).
// ---------------------------------------------------------------------------

Dataset Ages(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(vec::ClampScalar(rng.Gaussian(40.0, 10.0), 0.0, 150.0));
  }
  return Dataset::FromColumn(values).value();
}

QueryRequest MeanRequest(double epsilon) {
  QueryRequest request;
  request.analyst = "alice";
  request.dataset = "ages";
  request.program.name = "mean";
  request.epsilon = epsilon;
  request.range_mode = RangeMode::kTight;
  request.output_ranges = {Range{0.0, 150.0}};
  request.block_size = 64;  // 512 rows => exactly 8 blocks per query
  return request;
}

std::vector<DatasetBudgetSnapshot> RunPooledQuerySequence(
    std::size_t* fallback_blocks_out) {
  ServiceOptions options;
  options.chamber_pool_workers = 2;
  GuptService service(std::move(options),
                      ProgramRegistry::WithStandardPrograms());
  DatasetOptions ds;
  ds.total_epsilon = 4.0;
  EXPECT_TRUE(service.RegisterDataset("ages", Ages(512, 1), ds).ok());

  std::size_t fallbacks = 0;
  for (int q = 0; q < 4; ++q) {
    auto report = service.SubmitQuery(MeanRequest(0.5));
    EXPECT_TRUE(report.ok()) << report.status();
    if (report.ok()) {
      EXPECT_EQ(report->num_blocks, 8u);
      fallbacks += report->fallback_blocks;
    }
  }
  *fallback_blocks_out = fallbacks;
  return service.BudgetSnapshots();
}

TEST_F(ChamberPoolFaultTest, CrashingPooledWorkersLeaveLedgerBitIdentical) {
  std::size_t faulty_fallbacks = 0;
  std::size_t clean_fallbacks = 0;
  std::vector<DatasetBudgetSnapshot> faulty;
  {
    Config config;
    config.every_nth = 3;
    config.action = Action::kCrash;
    ScopedFailpoint fp("exec.pool.lease", config);
    faulty = RunPooledQuerySequence(&faulty_fallbacks);
    // The faults really happened: every 3rd of the 32 pooled leases
    // crashed, and each crash surfaced as exactly one fallback block.
    EXPECT_EQ(fp.evaluations(), 32u);
    EXPECT_GE(fp.fires(), 32u / 3u);
    EXPECT_EQ(faulty_fallbacks, fp.fires());
  }
  auto clean = RunPooledQuerySequence(&clean_fallbacks);
  EXPECT_EQ(clean_fallbacks, 0u);

  // ...and the ledger cannot tell the difference: charges land at
  // admission, before any chamber runs, so the two runs' /budgetz state is
  // equal to the last bit.
  ASSERT_EQ(faulty.size(), 1u);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_EQ(faulty[0].dataset, clean[0].dataset);
  EXPECT_EQ(faulty[0].budget.total_epsilon, clean[0].budget.total_epsilon);
  EXPECT_EQ(faulty[0].budget.spent_epsilon, clean[0].budget.spent_epsilon);
  EXPECT_EQ(faulty[0].budget.remaining_epsilon(),
            clean[0].budget.remaining_epsilon());
  ASSERT_EQ(faulty[0].budget.charges.size(), clean[0].budget.charges.size());
  for (std::size_t i = 0; i < clean[0].budget.charges.size(); ++i) {
    EXPECT_EQ(faulty[0].budget.charges[i].epsilon,
              clean[0].budget.charges[i].epsilon);
  }
}

}  // namespace
}  // namespace gupt
