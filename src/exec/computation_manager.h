// Computation manager: schedules per-block executions across the cluster.
//
// In the paper (§3.1, §6) the computation manager is split into a server
// component (user-facing: accepts the program and pipes dataset blocks to
// computation instances) and a trusted client component on every cluster
// node (instantiates the chamber, restricts IPC to itself). Here the
// "cluster" is a thread pool: each worker thread plays one node's trusted
// client, and the server side is this class.

#ifndef GUPT_EXEC_COMPUTATION_MANAGER_H_
#define GUPT_EXEC_COMPUTATION_MANAGER_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "exec/chamber.h"
#include "exec/chamber_pool.h"
#include "exec/program.h"
#include "obs/metrics.h"

namespace gupt {

/// Where and when one block ran, for cross-thread trace export. The
/// worker id is ThreadPool::CurrentWorkerId() on the executing thread
/// (0 = the fan-out ran sequentially on the coordinator).
struct BlockTiming {
  int worker_id = 0;
  std::chrono::steady_clock::time_point start{};
  std::chrono::steady_clock::time_point end{};
};

/// Aggregate of one fan-out over all blocks.
struct BlockExecutionReport {
  /// Per-block outcomes, indexed like the BlockSet's slices.
  std::vector<ChamberRun> runs;
  /// Per-block scheduling facts, indexed like `runs`.
  std::vector<BlockTiming> timings;
  std::size_t fallback_count = 0;
  std::size_t deadline_exceeded_count = 0;
  std::size_t policy_violation_count = 0;
  /// Summed rusage of all process-chamber children in the fan-out (zero
  /// for in-thread chambers); max_rss is the largest single child.
  std::int64_t child_user_cpu_ns = 0;
  std::int64_t child_sys_cpu_ns = 0;
  std::int64_t child_max_rss_kb = 0;

  /// Just the per-block outputs, in block order.
  std::vector<Row> Outputs() const;
};

class ComputationManager {
 public:
  /// `pool` may be null, in which case blocks run sequentially on the
  /// calling thread (useful for deterministic tests and micro-benchmarks).
  /// `chamber_pool` (not owned, may be null) enables pre-warmed pooled
  /// execution for programs that carry a pool token.
  ComputationManager(ThreadPool* pool, ChamberPolicy policy,
                     ChamberPool* chamber_pool = nullptr);

  /// Executes a fresh instance of the program on every block of `blocks`
  /// inside a chamber. Blocks are zero-copy views into the BlockSet's
  /// gathered store. `fallback` is the constant substituted for
  /// failed/overrun blocks and for outputs holding a NaN (which the clamp
  /// would pass through to the release); it must match the program's
  /// output dimension.
  /// When this manager has a chamber pool and `pool_token` is non-empty,
  /// blocks run on pre-warmed pool workers (the token is resolved inside
  /// the worker); otherwise the in-process or fork-per-block chamber runs
  /// `factory` directly.
  Result<BlockExecutionReport> ExecuteOnBlocks(const ProgramFactory& factory,
                                               const BlockSet& blocks,
                                               const Row& fallback,
                                               const std::string& pool_token =
                                                   std::string()) const;

  const ChamberPolicy& policy() const { return chamber_.policy(); }

 private:
  ThreadPool* pool_;  // not owned; null => sequential
  ChamberPool* chamber_pool_;  // not owned; null => no pooled execution
  ExecutionChamber chamber_;

  // Observability handles (process-global registry). Per-block chamber
  // latencies are observed by the coordinating thread after the fan-out
  // joins, from each ChamberRun's own elapsed clock.
  obs::Histogram* block_duration_histogram_;
  obs::Counter* blocks_ok_counter_;
  obs::Counter* blocks_fallback_counter_;
  obs::Counter* deadline_counter_;
  obs::Counter* violation_counter_;
  obs::Counter* child_user_cpu_counter_;
  obs::Counter* child_sys_cpu_counter_;
  obs::Gauge* child_max_rss_gauge_;
};

}  // namespace gupt

#endif  // GUPT_EXEC_COMPUTATION_MANAGER_H_
