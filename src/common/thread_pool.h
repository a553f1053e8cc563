// Fixed-size worker pool used by the computation manager.
//
// The paper's computation manager "automatically parallelizes the task
// across a cluster" (§1); in this reproduction the cluster is a pool of
// worker threads, each standing in for a cluster node running the trusted
// client component.

#ifndef GUPT_COMMON_THREAD_POOL_H_
#define GUPT_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace gupt {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  std::size_t num_threads() const { return workers_.size(); }

  /// Stable, process-unique id of the calling pool worker (1-based; ids
  /// are drawn from one global counter across all pools, so a worker id
  /// identifies a thread for the process lifetime). Returns 0 when the
  /// calling thread is not a ThreadPool worker. Used to attribute
  /// per-block trace spans to the thread that ran them (obs::BlockSpan).
  static int CurrentWorkerId();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for those n
  /// calls only, not for other work on the pool. May be called
  /// concurrently from several threads, but not from a pool worker: the
  /// caller blocks, and a worker blocked on its own fan-out holds a thread
  /// the fan-out may need.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<QueuedTask> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;

  // Observability handles (process-global registry; see docs/observability.md).
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* wait_histogram_;
  obs::Histogram* run_histogram_;
  obs::Counter* tasks_counter_;
};

}  // namespace gupt

#endif  // GUPT_COMMON_THREAD_POOL_H_
