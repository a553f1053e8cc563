// The traced pass: replays a workload's request stream through the query
// pipeline's own stage objects, without the service around them.
//
// The replay owns what the service would own for the pipeline — a dataset
// manager, the block fan-out thread pool, a computation manager over an
// optional chamber pool, and the pipeline — and runs each query on one of
// `admission_workers` threads, as the service's admission pool does. A
// traced query walks QueryPipeline::stages() and times every Stage::Run
// from here; an untraced one calls QueryPipeline::Run. The difference
// between the two is the cost of tracing, and the difference between the
// service and an untraced walk is what the service adds around the
// pipeline.

#ifndef SVCBENCH_REPLAY_H_
#define SVCBENCH_REPLAY_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline/pipeline.h"
#include "exec/chamber_pool.h"
#include "exec/computation_manager.h"
#include "service/program_registry.h"
#include "spans.h"
#include "workloads.h"

namespace svcbench {

/// Sums over the traced queries of one replay.
struct LayerTotals {
  std::size_t queries = 0;
  /// Summed Stage::Run wall time, by stage name.
  std::map<std::string, double> stage_ms;
  /// Summed traced pipeline wall time (first stage start to last end).
  double pipeline_ms = 0.0;
  std::size_t blocks = 0;
  std::size_t fallback_blocks = 0;
  double block_ms = 0.0;              // ChamberRun::elapsed
  double block_cpu_ms = 0.0;          // chamber-reported child CPU
  double block_queue_wait_ms = 0.0;   // block start - stage call start
  double join_wait_ms = 0.0;          // stage return - last block end
  /// Untraced walks: count and summed QueryPipeline::Run wall time.
  std::size_t untraced_queries = 0;
  double untraced_pipeline_ms = 0.0;
};

class Replay {
 public:
  /// `chamber_pool` (not owned, may be null) must already be started;
  /// `recorder` (not owned) receives the traced spans.
  Replay(const Workload& workload, gupt::ChamberPool* chamber_pool,
         std::uint64_t seed, SpanRecorder* recorder);

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Registers the workload's datasets and charges their history.
  gupt::Status Init();

  /// Queues one query on the replay's admission workers.
  std::future<gupt::Result<gupt::QueryReport>> Submit(const Query& query,
                                                      bool traced);

  /// Read once the queries submitted so far have completed.
  LayerTotals totals() const;

  /// Forgets the totals so far (after a warm-up).
  void ResetTotals();

  std::vector<gupt::DatasetBudgetSnapshot> BudgetSnapshots() const {
    return manager_.BudgetSnapshots();
  }

 private:
  gupt::Result<gupt::QueryReport> Walk(const Query& query,
                                       Clock::time_point submitted,
                                       bool traced);

  const Workload* workload_;
  gupt::ChamberPool* chamber_pool_;
  std::uint64_t seed_;
  SpanRecorder* recorder_;
  gupt::ProgramRegistry registry_;
  gupt::DatasetManager manager_;
  std::unique_ptr<gupt::ThreadPool> fanout_;
  std::unique_ptr<gupt::ComputationManager> computation_;
  std::unique_ptr<gupt::QueryPipeline> pipeline_;
  std::atomic<std::uint64_t> next_query_id_{1};
  mutable std::mutex mu_;
  LayerTotals totals_;
  /// Declared last so it drains first: its tasks use every member above.
  std::unique_ptr<gupt::ThreadPool> admission_;
};

/// Starts a chamber pool whose workers resolve the replay's program
/// tokens. Call from a single-threaded point, like the service does.
gupt::Result<std::unique_ptr<gupt::ChamberPool>> StartReplayPool(
    const Workload& workload);

}  // namespace svcbench

#endif  // SVCBENCH_REPLAY_H_
