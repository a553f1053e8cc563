#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace gupt {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Worker-id assignment: one process-global counter so ids never collide
/// across pools (the runtime's block workers and the service's admission
/// workers land on distinct trace lanes).
std::atomic<int> g_next_worker_id{0};
thread_local int tls_worker_id = 0;

}  // namespace

int ThreadPool::CurrentWorkerId() { return tls_worker_id; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  queue_depth_gauge_ = registry.GetGauge(
      "gupt_threadpool_queue_depth_count",
      "Tasks waiting in the worker-pool queue (not yet picked up).");
  wait_histogram_ = registry.GetHistogram(
      "gupt_threadpool_task_wait_seconds",
      "Time a task spent queued before a worker picked it up.",
      obs::Histogram::DurationBuckets());
  run_histogram_ = registry.GetHistogram(
      "gupt_threadpool_task_run_seconds",
      "Time a worker spent running a task.",
      obs::Histogram::DurationBuckets());
  tasks_counter_ = registry.GetCounter(
      "gupt_threadpool_tasks_total", "Tasks executed by the worker pool.");

  std::size_t count = std::max<std::size_t>(1, num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  assert(task);
  {
    std::unique_lock<std::mutex> lock(mu_);
    assert(!shutting_down_);
    queue_.push_back({std::move(task), std::chrono::steady_clock::now()});
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  // A per-call latch: this call waits for its own n tasks only, never for
  // other callers' work on the shared pool. The last task notifies while
  // holding the latch's mutex, so the latch, which lives on this frame,
  // outlives that notify. Tasks capture only the latch's address and an
  // index, small enough for std::function to store without allocating.
  struct Latch {
    const std::function<void(std::size_t)>& fn;
    std::size_t remaining;
    std::mutex mu;
    std::condition_variable done;
  } latch{fn, n, {}, {}};
  for (std::size_t i = 0; i < n; ++i) {
    Submit([&latch, i] {
      latch.fn(i);
      std::lock_guard<std::mutex> lock(latch.mu);
      if (--latch.remaining == 0) latch.done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch.mu);
  latch.done.wait(lock, [&latch] { return latch.remaining == 0; });
}

void ThreadPool::WorkerLoop() {
  tls_worker_id = g_next_worker_id.fetch_add(1, std::memory_order_relaxed) + 1;
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
    const auto started = std::chrono::steady_clock::now();
    wait_histogram_->Observe(Seconds(started - task.enqueued));
    task.fn();
    run_histogram_->Observe(Seconds(std::chrono::steady_clock::now() - started));
    tasks_counter_->Increment();
  }
}

}  // namespace gupt
