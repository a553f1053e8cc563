#include "exec/chamber_pool.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <set>
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

/// One block holding every row of `data`, in order.
BlockSet WholeBlock(const Dataset& data) {
  BlockSet set;
  set.source = data;
  set.rows.resize(data.num_rows());
  std::iota(set.rows.begin(), set.rows.end(), std::size_t{0});
  set.slices = {BlockSlice{0, data.num_rows()}};
  return set;
}

/// Descriptors open in this process, counted in /proc/self/fd (the
/// directory's own descriptor included, the same in every process).
double OpenDescriptors() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1.0;
  double count = 0.0;
  while (const struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

/// Input segments this process maps, counted in /proc/self/maps.
std::size_t MappedSegments() {
  std::ifstream maps("/proc/self/maps");
  std::size_t count = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find("gupt-chamber-segment") != std::string::npos) ++count;
  }
  return count;
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
/// sampling profiler's SIGPROF interrupts service threads. Every blocking
/// call a lease makes on that thread (the frame's writev, the poll and
/// read of the answer) must then retry after EINTR or resume after a
/// short transfer.
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
/// `colsums<dims>` resolves to WeightedColumnSums(dims). The rest probe
/// the worker itself: `peek<k>` counts the nonzero values among the k
/// doubles past the block's last column, `fds` reports the worker's open
/// descriptors and pid after holding its lease for a while, `mprotect`
/// tries to make its segment writable and write to it, and `crash` dies.
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
    if (token.rfind("peek", 0) == 0) {
      const std::size_t k = std::stoul(token.substr(4));
      return MakeProgramFactory(
          "peek", 1, [k](const Dataset& block) -> Result<Row> {
            const double* past =
                block.col(block.num_dims() - 1) + block.num_rows();
            double nonzero = 0.0;
            for (std::size_t i = 0; i < k; ++i) {
              if (past[i] != 0.0) ++nonzero;
            }
            return Row{nonzero};
          });
    }
    if (token == "fds") {
      return MakeProgramFactory("fds", 2, [](const Dataset&) -> Result<Row> {
        std::this_thread::sleep_for(milliseconds(300));
        return Row{OpenDescriptors(), static_cast<double>(::getpid())};
      });
    }
    if (token == "mprotect") {
      return MakeProgramFactory(
          "mprotect", 1, [](const Dataset& block) -> Result<Row> {
            const auto page_size =
                static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
            const auto first = reinterpret_cast<std::uintptr_t>(block.col(0));
            void* page = reinterpret_cast<void*>(first & ~(page_size - 1));
            if (::mprotect(page, page_size, PROT_READ | PROT_WRITE) != 0) {
              return Status::PolicyViolation("the segment stays read-only");
            }
            const_cast<double*>(block.col(0))[0] = 1e9;
            return Row{1.0};
          });
    }
    if (token == "crash") {
      return MakeProgramFactory("crash", 2, [](const Dataset&) -> Result<Row> {
        ::_exit(3);
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
  auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{6.0}));
  EXPECT_TRUE(run->program_status.ok());
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.leases, 1u);
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.shipped_bytes, 21u + 3u);  // header and token, no column
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
  auto pooled = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->output.size(), direct->output.size());
  EXPECT_EQ(pooled->output[0], direct->output[0]);
}

TEST(ChamberPoolTest, BlockLargerThanThePipeBufferIsBitIdentical) {
  // 16 columns x 4,096 rows is 512 KiB, more than a pipe buffer holds. It
  // reaches the worker through its segment, whole and in place, whether
  // or not signals land on the leasing thread while it gathers the block,
  // writes the frame and waits for the answer.
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
      auto pooled = pool.Execute("colsums16", WholeBlock(data), 0, fallback);
      ASSERT_TRUE(pooled.ok());
      EXPECT_FALSE(pooled->used_fallback) << pooled->program_status;
      EXPECT_EQ(pooled->output, direct->output)
          << "lease " << lease << (interrupted ? " under signals" : "");
    }
  }
  EXPECT_EQ(pool.Stats().respawns, 0u);
}

TEST(ChamberPoolTest, MoreColumnsThanOneWritevTakesAreAllShipped) {
  // Each of 1,100 columns must land in its place in the segment, and the
  // 1,100-value answer is more than one atomic pipe write, so the parent
  // may read it in pieces.
  Dataset data = Block(8, 1100);
  const Row fallback(1100, 0.0);
  ExecutionChamber chamber{ChamberPolicy{}};
  auto direct = chamber.Execute(WeightedColumnSums(1100), data, fallback);
  ASSERT_TRUE(direct.ok());

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  auto pooled = pool.Execute("colsums1100", WholeBlock(data), 0, fallback);
  ASSERT_TRUE(pooled.ok());
  EXPECT_FALSE(pooled->used_fallback) << pooled->program_status;
  EXPECT_EQ(pooled->output, direct->output);
}

TEST(ChamberPoolTest, ShippedBytesCountTheWholeRequestFrame) {
  // Per lease: the 21-byte header (cmd u8, token_len u32, num_dims u32,
  // expected_dims u32, num_rows u64) and the token. The columns travel in
  // the worker's segment, not the pipe.
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
    auto run = pool.Execute(c.token, WholeBlock(data), 0, Row(c.dims, 0.0));
    ASSERT_TRUE(run.ok());
    ASSERT_FALSE(run->used_fallback) << c.token;
    expected += 21 + c.token.size();
    EXPECT_EQ(pool.Stats().shipped_bytes, expected) << c.token;
  }
}

TEST(ChamberPoolTest, OneWorkerIsReusedNotRespawned) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({2, 3});
  for (int i = 0; i < 5; ++i) {
    auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
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
  auto run = pool.Execute("fails", WholeBlock(data), 0, Row{0.5});
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
  auto run = pool.Execute("pair", WholeBlock(data), 0, Row{0.25});
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
  auto run = pool.Execute("no_such_program", WholeBlock(data), 0, Row{0.75});
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
  auto run = pool.Execute("stall", WholeBlock(data), 0, Row{9.0});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->deadline_exceeded);
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{9.0}));
  EXPECT_EQ(pool.Stats().workers_alive, 0u);  // overrunner was SIGKILLed

  // The next lease revives the slot and the pool keeps answering.
  auto next = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
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
  auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
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
  auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run->child_user_cpu_ns + run->child_sys_cpu_ns, 0);
  EXPECT_GT(run->child_max_rss_kb, 0);
}

TEST(ChamberPoolTest, RejectsCallerBugs) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  Dataset data = OneColumn({1});
  // Not started yet.
  EXPECT_FALSE(pool.Execute("sum", WholeBlock(data), 0, Row{0.0}).ok());
  ASSERT_TRUE(pool.Start().ok());
  // Empty fallback.
  EXPECT_FALSE(pool.Execute("sum", WholeBlock(data), 0, Row{}).ok());
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
        auto run = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
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
    ASSERT_TRUE(single.Execute("sum", WholeBlock(data), 0, Row{0.0}).ok());
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
        (void)pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
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
  EXPECT_FALSE(pool.Execute("sum", WholeBlock(data), 0, Row{0.0}).ok());
}

TEST(ChamberPoolTest, ProgramReadingPastItsLastColumnFindsZeros) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = Block(100, 3);
  auto run = pool.Execute("peek4096", WholeBlock(data), 0, Row{-1.0});
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->used_fallback) << run->program_status;
  EXPECT_EQ(run->output, (Row{0.0}));
}

TEST(ChamberPoolTest, SmallerBlockAfterALargerOneFindsOnlyZerosPastIt) {
  // One worker, so both leases share its segment: the second block is
  // 16 x 1 values, and the first left 2,000 x 8 values there.
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset large = Block(2000, 8);
  Dataset small = Block(16, 1);
  auto first = pool.Execute("colsums8", WholeBlock(large), 0, Row(8, 0.0));
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->used_fallback) << first->program_status;
  auto second =
      pool.Execute("peek16000", WholeBlock(small), 0, Row{-1.0});
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(second->used_fallback) << second->program_status;
  EXPECT_EQ(second->output, (Row{0.0}))
      << "a byte of the earlier block is still in the segment";
  EXPECT_EQ(pool.Stats().respawns, 0u);
}

TEST(ChamberPoolTest, ProgramCannotMakeItsSegmentWritable) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3});
  auto run = pool.Execute("mprotect", WholeBlock(data), 0, Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  // The same worker answers the next lease, over its block as gathered.
  auto next = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->used_fallback);
  EXPECT_EQ(next->output, (Row{6.0}));
  EXPECT_EQ(pool.Stats().respawns, 0u);
}

TEST(ChamberPoolTest, OverrunWorkerIsDiscardedWithItsSegment) {
  ChamberPolicy policy;
  policy.deadline = std::chrono::microseconds(30000);  // 30ms vs 400ms stall
  ChamberPool pool(policy, 1);
  pool.SetProgramResolver(TestResolver());
  const std::size_t before_start = MappedSegments();
  ASSERT_TRUE(pool.Start().ok());
  EXPECT_EQ(MappedSegments(), before_start + 1);
  Dataset data = OneColumn({1});
  auto run = pool.Execute("stall", WholeBlock(data), 0, Row{9.0});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->deadline_exceeded);
  EXPECT_EQ(pool.Stats().workers_alive, 0u);
  EXPECT_EQ(MappedSegments(), before_start);  // unmapped with its worker

  // The respawned worker gets a fresh segment and a clean answer.
  auto next = pool.Execute("sum", WholeBlock(data), 0, Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->output, (Row{1.0}));
  EXPECT_EQ(MappedSegments(), before_start + 1);
  pool.Shutdown();
  EXPECT_EQ(MappedSegments(), before_start);
}

TEST(ChamberPoolTest, BlockLargerThanTheSegmentIsAnsweredAfterARespawn) {
  // Two columns of just over half the initial segment each.
  const std::size_t rows =
      ChamberPool::kInitialSegmentBytes / sizeof(double) / 2 + 1;
  Dataset data = Block(rows, 2);
  const Row fallback(2, 0.0);
  ExecutionChamber chamber{ChamberPolicy{}};
  auto direct = chamber.Execute(WeightedColumnSums(2), data, fallback);
  ASSERT_TRUE(direct.ok());

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  for (int lease = 0; lease < 2; ++lease) {
    auto pooled = pool.Execute("colsums2", WholeBlock(data), 0, fallback);
    ASSERT_TRUE(pooled.ok());
    EXPECT_FALSE(pooled->used_fallback) << pooled->program_status;
    EXPECT_EQ(pooled->output, direct->output) << "lease " << lease;
  }
  // One respawn grew the slot's segment, and the slot stays grown.
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST(ChamberPoolTest, EveryWorkerHoldsOnlyItsOwnDescriptors) {
  ChamberPool pool(ChamberPolicy{}, 3);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  // Three leases at once, each holding its worker for a while, reach all
  // three workers.
  auto lease_all = [&] {
    std::vector<Row> outputs(3);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        auto run = pool.Execute("fds", WholeBlock(data), 0, Row{-1.0, -1.0});
        if (run.ok()) outputs[t] = run->output;
      });
    }
    for (auto& thread : threads) thread.join();
    return outputs;
  };
  const std::vector<Row> first = lease_all();
  std::set<double> pids;
  for (const Row& out : first) {
    ASSERT_EQ(out.size(), 2u);
    EXPECT_GT(out[0], 0.0);
    EXPECT_EQ(out[0], first[0][0]) << "workers hold different descriptors";
    pids.insert(out[1]);
  }
  EXPECT_EQ(pids.size(), 3u);

  // A crashed worker's slot respawns while the other two are alive; the
  // new worker must not hold their pipe ends either.
  auto crashed = pool.Execute("crash", WholeBlock(data), 0, Row{0.0, 0.0});
  ASSERT_TRUE(crashed.ok());
  EXPECT_TRUE(crashed->used_fallback);
  const std::vector<Row> second = lease_all();
  std::size_t respawned = 0;
  for (const Row& out : second) {
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], first[0][0]) << "workers hold different descriptors";
    if (pids.count(out[1]) == 0) ++respawned;
  }
  EXPECT_EQ(respawned, 1u);
  EXPECT_EQ(pool.Stats().respawns, 1u);
}

}  // namespace
}  // namespace gupt
