#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace gupt {
namespace {

/// Counts the completions of directly submitted tasks, so a test waits for
/// exactly its own tasks (the pool has no pool-wide wait).
class Completions {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    changed_.notify_all();
  }

  void WaitFor(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return done_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  int done_ = 0;
};

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  Completions completions;  // outlives the pool and its workers
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      completions.Add();
    });
  }
  completions.WaitFor(100);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroItems) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  Completions completions;
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    completions.Add();
  });
  completions.WaitFor(1);
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(4, [&](std::size_t) {
    int now = concurrent.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    concurrent.fetch_sub(1);
  });
  EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SequentialWavesOfWork) {
  Completions completions;
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] {
        counter.fetch_add(1);
        completions.Add();
      });
    }
    completions.WaitFor((wave + 1) * 20);
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, ParallelForReturnsWhileAnotherCallersTaskIsBlocked) {
  // Two callers share one pool, as concurrent queries share the runtime's
  // block pool. Caller A's fan-out must return while caller B's task still
  // holds a worker: each ParallelFor waits for its own tasks only.
  ThreadPool pool(2);
  std::promise<void> release_b;
  std::shared_future<void> b_released = release_b.get_future().share();
  std::promise<void> b_started;
  std::thread caller_b([&] {
    pool.ParallelFor(1, [&](std::size_t) {
      b_started.set_value();
      b_released.wait();
    });
  });
  b_started.get_future().wait();

  std::atomic<int> a_ran{0};
  std::future<void> caller_a = std::async(std::launch::async, [&] {
    pool.ParallelFor(16, [&](std::size_t) { a_ran.fetch_add(1); });
  });
  const bool a_returned = caller_a.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
  // Released in every outcome, so a failure cannot hang the binary.
  release_b.set_value();
  caller_b.join();
  caller_a.wait();
  EXPECT_TRUE(a_returned) << "caller A waited for caller B's blocked task";
  EXPECT_EQ(a_ran.load(), 16);
}

}  // namespace
}  // namespace gupt
