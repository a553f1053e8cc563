#include "exec/chamber_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/chamber.h"
#include "exec/program.h"

namespace gupt {
namespace {

using std::chrono::milliseconds;

Dataset OneColumn(std::vector<double> values) {
  return Dataset::FromColumn(values).value();
}

ProgramFactory SumFactory() {
  return MakeProgramFactory("sum", 1, [](const Dataset& block) -> Result<Row> {
    double sum = 0.0;
    const double* col = block.col(0);
    for (std::size_t r = 0; r < block.num_rows(); ++r) sum += col[r];
    return Row{sum};
  });
}

/// Resolver covering every behaviour the protocol must carry: a clean
/// program, a wrong-arity program, a failing program, and a stalling one.
ProgramResolver TestResolver() {
  return [](const std::string& token) -> Result<ProgramFactory> {
    if (token == "sum") return SumFactory();
    if (token == "pair") {
      return MakeProgramFactory("pair", 2, [](const Dataset&) -> Result<Row> {
        return Row{1.0, 2.0};
      });
    }
    if (token == "fails") {
      return MakeProgramFactory("fails", 1, [](const Dataset&) -> Result<Row> {
        return Status::NumericalError("synthetic program failure");
      });
    }
    if (token == "stall") {
      return MakeProgramFactory("stall", 1, [](const Dataset&) -> Result<Row> {
        std::this_thread::sleep_for(milliseconds(400));
        return Row{1.0};
      });
    }
    return Status::InvalidArgument("unknown token: " + token);
  };
}

TEST(ChamberPoolTest, RunsResolvedProgramOnPooledWorker) {
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3});
  auto run = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{6.0}));
  EXPECT_TRUE(run->program_status.ok());
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.leases, 1u);
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_GT(stats.shipped_bytes, 3 * sizeof(double));
}

TEST(ChamberPoolTest, OutputMatchesInProcessChamberBitForBit) {
  // Same deterministic program, same block: the pooled answer must be the
  // in-process chamber's answer exactly (the golden pipeline test pins the
  // same property end to end).
  Dataset data = OneColumn({0.1, 0.2, 0.30000000000000004, 17.25});
  ExecutionChamber chamber{ChamberPolicy{}};
  auto direct = chamber.Execute(SumFactory(), data, Row{0.0});
  ASSERT_TRUE(direct.ok());

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  auto pooled = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->output.size(), direct->output.size());
  EXPECT_EQ(pooled->output[0], direct->output[0]);
}

TEST(ChamberPoolTest, OneWorkerIsReusedNotRespawned) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({2, 3});
  for (int i = 0; i < 5; ++i) {
    auto run = pool.Execute("sum", data.view(), Row{0.0});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->output, (Row{5.0}));
  }
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.spawned, 1u);  // forked once, ever
  EXPECT_EQ(stats.leases, 5u);
  EXPECT_EQ(stats.resets, 5u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST(ChamberPoolTest, ProgramErrorSubstitutesFallback) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("fails", data.view(), Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kNumericalError);
  // A clean error frame is a healthy worker: reset, not discarded.
  EXPECT_EQ(pool.Stats().resets, 1u);
}

TEST(ChamberPoolTest, WrongArityIsAPolicyViolationFallback) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("pair", data.view(), Row{0.25});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.25}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kPolicyViolation);
}

TEST(ChamberPoolTest, UnresolvableTokenFallsBackWithInternalStatus) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("no_such_program", data.view(), Row{0.75});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.75}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kInternal);
}

TEST(ChamberPoolTest, DeadlineKillsTheWorkerAndRespawnsLazily) {
  ChamberPolicy policy;
  policy.deadline = std::chrono::microseconds(30000);  // 30ms vs 400ms stall
  ChamberPool pool(policy, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("stall", data.view(), Row{9.0});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->deadline_exceeded);
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{9.0}));
  EXPECT_EQ(pool.Stats().workers_alive, 0u);  // overrunner was SIGKILLed

  // The next lease revives the slot and the pool keeps answering.
  auto next = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->output, (Row{1.0}));
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST(ChamberPoolTest, PadToDeadlineStretchesElapsed) {
  ChamberPolicy policy;
  policy.deadline = std::chrono::microseconds(50000);  // 50ms
  policy.pad_to_deadline = true;
  ChamberPool pool(policy, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2});
  auto run = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->used_fallback);
  EXPECT_GE(run->elapsed, std::chrono::nanoseconds(policy.deadline));
}

TEST(ChamberPoolTest, ReportsWorkerRusage) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  std::vector<double> values(50000, 1.0);
  Dataset data = OneColumn(values);
  auto run = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run->child_user_cpu_ns + run->child_sys_cpu_ns, 0);
  EXPECT_GT(run->child_max_rss_kb, 0);
}

TEST(ChamberPoolTest, RejectsCallerBugs) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  Dataset data = OneColumn({1});
  // Not started yet.
  EXPECT_FALSE(pool.Execute("sum", data.view(), Row{0.0}).ok());
  ASSERT_TRUE(pool.Start().ok());
  // Empty fallback.
  EXPECT_FALSE(pool.Execute("sum", data.view(), Row{}).ok());
  // Double start.
  EXPECT_FALSE(pool.Start().ok());
}

TEST(ChamberPoolTest, ConcurrentLeasesShareTwoWorkers) {
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3, 4});
  std::vector<std::thread> threads;
  std::vector<int> ok_flags(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        auto run = pool.Execute("sum", data.view(), Row{0.0});
        if (!run.ok() || run->output != Row{10.0}) return;
      }
      ok_flags[t] = 1;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(ok_flags[t], 1) << "thread " << t;
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases, 32u);
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.respawns, 0u);
}

TEST(ChamberPoolTest, StatsStayExactWhileFanOutThreadsLease) {
  // Every stats_ field is written under the pool lock, so Stats() can be
  // read while fan-out threads lease, and no shipped byte is lost to a
  // racing add (run under -DGUPT_SANITIZE=thread to see the race itself).
  Dataset data = OneColumn({1, 2, 3, 4});
  std::uint64_t frame_bytes = 0;
  {
    ChamberPool single(ChamberPolicy{}, 1);
    single.SetProgramResolver(TestResolver());
    ASSERT_TRUE(single.Start().ok());
    ASSERT_TRUE(single.Execute("sum", data.view(), Row{0.0}).ok());
    frame_bytes = single.Stats().shipped_bytes;
  }
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  std::atomic<bool> leasing{true};
  std::thread reader([&] {
    while (leasing.load()) (void)pool.Stats();
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        (void)pool.Execute("sum", data.view(), Row{0.0});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  leasing.store(false);
  reader.join();
  EXPECT_EQ(pool.Stats().leases, 32u);
  EXPECT_EQ(pool.Stats().shipped_bytes, 32 * frame_bytes);
}

TEST(ChamberPoolTest, ShutdownIsIdempotentAndStopsLeasing) {
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(pool.Stats().workers_alive, 0u);
  Dataset data = OneColumn({1});
  EXPECT_FALSE(pool.Execute("sum", data.view(), Row{0.0}).ok());
}

}  // namespace
}  // namespace gupt
