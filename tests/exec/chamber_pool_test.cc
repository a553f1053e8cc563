#include "exec/chamber_pool.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
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

/// Sums each of `dims` columns with position weights, one output per
/// column: a chunk of the request frame that is dropped, reordered or
/// resumed at the wrong offset changes the answer.
ProgramFactory WeightedColumnSums(std::size_t dims) {
  return MakeProgramFactory(
      "colsums", dims, [](const Dataset& block) -> Result<Row> {
        Row sums(block.num_dims(), 0.0);
        for (std::size_t d = 0; d < block.num_dims(); ++d) {
          const double* col = block.col(d);
          for (std::size_t r = 0; r < block.num_rows(); ++r) {
            sums[d] += static_cast<double>(r + 1) * col[r];
          }
        }
        return sums;
      });
}

/// A rows x dims block of distinct, irregular values.
Dataset Block(std::size_t rows, std::size_t dims) {
  std::vector<std::vector<double>> columns(dims, std::vector<double>(rows));
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t r = 0; r < rows; ++r) {
      columns[d][r] = std::sin(static_cast<double>(d * rows + r)) * 1e3;
    }
  }
  return Dataset::FromColumns(std::move(columns)).value();
}

/// Keeps interrupting `target` with a no-op SIGUSR1 while alive, as the
/// sampling profiler's SIGPROF interrupts service threads. A blocking pipe
/// write moves its whole buffer unless a signal interrupts it, and then it
/// returns short, so this is what makes the parent's writev resume.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t target) {
    // Installed once and left installed: a late delivery must never meet
    // the default action, which ends the process.
    static const bool installed = [] {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof(sa));
      sa.sa_handler = [](int) {};
      sigemptyset(&sa.sa_mask);
      return ::sigaction(SIGUSR1, &sa, nullptr) == 0;
    }();
    EXPECT_TRUE(installed);
    thread_ = std::thread([this, target] {
      while (!stop_.load()) {
        ::pthread_kill(target, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }

  SignalStorm(const SignalStorm&) = delete;
  SignalStorm& operator=(const SignalStorm&) = delete;

  ~SignalStorm() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Resolver covering every behaviour the protocol must carry: a clean
/// program, a wrong-arity program, a failing program, and a stalling one;
/// `colsums<dims>` resolves to WeightedColumnSums(dims).
ProgramResolver TestResolver() {
  return [](const std::string& token) -> Result<ProgramFactory> {
    if (token == "sum") return SumFactory();
    if (token.rfind("colsums", 0) == 0) {
      return WeightedColumnSums(std::stoul(token.substr(7)));
    }
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

TEST(ChamberPoolTest, BlockLargerThanThePipeBufferIsBitIdentical) {
  // 16 columns x 4,096 rows is 512 KiB, more than a pipe buffer holds: the
  // worker's readv takes the frame in pieces, and with signals landing on
  // the leasing thread the parent's writev returns short too. Each side
  // must resume exactly where its last transfer stopped.
  Dataset data = Block(4096, 16);
  const Row fallback(16, 0.0);
  ExecutionChamber chamber{ChamberPolicy{}};
  auto direct = chamber.Execute(WeightedColumnSums(16), data, fallback);
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->used_fallback);

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  for (bool interrupted : {false, true}) {
    std::optional<SignalStorm> storm;
    if (interrupted) storm.emplace(::pthread_self());
    for (int lease = 0; lease < 8; ++lease) {
      auto pooled = pool.Execute("colsums16", data.view(), fallback);
      ASSERT_TRUE(pooled.ok());
      EXPECT_FALSE(pooled->used_fallback) << pooled->program_status;
      EXPECT_EQ(pooled->output, direct->output)
          << "lease " << lease << (interrupted ? " under signals" : "");
    }
  }
  EXPECT_EQ(pool.Stats().respawns, 0u);
}

TEST(ChamberPoolTest, MoreColumnsThanOneWritevTakesAreAllShipped) {
  // 1,100 columns need more iovecs than one writev/readv accepts, and the
  // 1,100-value answer is more than one atomic pipe write.
  Dataset data = Block(8, 1100);
  const Row fallback(1100, 0.0);
  ExecutionChamber chamber{ChamberPolicy{}};
  auto direct = chamber.Execute(WeightedColumnSums(1100), data, fallback);
  ASSERT_TRUE(direct.ok());

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  auto pooled = pool.Execute("colsums1100", data.view(), fallback);
  ASSERT_TRUE(pooled.ok());
  EXPECT_FALSE(pooled->used_fallback) << pooled->program_status;
  EXPECT_EQ(pooled->output, direct->output);
}

TEST(ChamberPoolTest, ShippedBytesCountTheWholeRequestFrame) {
  // Per lease: the 21-byte header (cmd u8, token_len u32, num_dims u32,
  // expected_dims u32, num_rows u64), the token, then every column.
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  struct Case {
    std::string token;
    std::size_t rows;
    std::size_t dims;
  };
  std::uint64_t expected = 0;
  for (const Case& c : {Case{"sum", 3, 1}, Case{"colsums16", 4096, 16},
                        Case{"colsums3", 1000, 3}}) {
    Dataset data = Block(c.rows, c.dims);
    auto run = pool.Execute(c.token, data.view(), Row(c.dims, 0.0));
    ASSERT_TRUE(run.ok());
    ASSERT_FALSE(run->used_fallback) << c.token;
    expected += 21 + c.token.size() + c.rows * c.dims * sizeof(double);
    EXPECT_EQ(pool.Stats().shipped_bytes, expected) << c.token;
  }
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
