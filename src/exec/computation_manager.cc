#include "exec/computation_manager.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "exec/process_chamber.h"
#include "obs/prof/profiler.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {

std::vector<Row> BlockExecutionReport::Outputs() const {
  std::vector<Row> outputs;
  outputs.reserve(runs.size());
  for (const ChamberRun& run : runs) outputs.push_back(run.output);
  return outputs;
}

ComputationManager::ComputationManager(ThreadPool* pool, ChamberPolicy policy,
                                       ChamberPool* chamber_pool)
    : pool_(pool), chamber_pool_(chamber_pool), chamber_(std::move(policy)) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  block_duration_histogram_ = registry.GetHistogram(
      "gupt_exec_block_duration_seconds",
      "Wall time of one per-block chamber execution (includes padding).",
      obs::Histogram::DurationBuckets());
  blocks_ok_counter_ =
      registry.GetCounter("gupt_exec_blocks_total",
                          "Block executions by outcome.", {{"outcome", "ok"}});
  blocks_fallback_counter_ = registry.GetCounter(
      "gupt_exec_blocks_total", "Block executions by outcome.",
      {{"outcome", "fallback"}});
  deadline_counter_ = registry.GetCounter(
      "gupt_exec_deadline_exceeded_total",
      "Block executions abandoned at the chamber cycle budget.");
  violation_counter_ = registry.GetCounter(
      "gupt_exec_policy_violations_total",
      "MAC policy denials incurred by untrusted programs.");
  child_user_cpu_counter_ = registry.GetCounter(
      "gupt_rusage_child_cpu_seconds_total",
      "CPU consumed by process-chamber children, by mode (wait4 rusage).",
      {{"mode", "user"}});
  child_sys_cpu_counter_ = registry.GetCounter(
      "gupt_rusage_child_cpu_seconds_total",
      "CPU consumed by process-chamber children, by mode (wait4 rusage).",
      {{"mode", "sys"}});
  child_max_rss_gauge_ = registry.GetGauge(
      "gupt_rusage_child_max_rss_bytes",
      "Largest process-chamber child high-water RSS observed so far.");
}

Result<BlockExecutionReport> ComputationManager::ExecuteOnBlocks(
    const ProgramFactory& factory, const BlockSet& blocks, const Row& fallback,
    const std::string& pool_token) const {
  if (blocks.empty()) {
    return Status::InvalidArgument("block set has no blocks");
  }
  const bool use_pool = chamber_pool_ != nullptr && !pool_token.empty();

  BlockExecutionReport report;
  report.runs.resize(blocks.num_blocks());
  report.timings.resize(blocks.num_blocks());
  std::vector<Status> statuses(blocks.num_blocks(), Status::OK());

  auto execute_one = [&](std::size_t i) {
    // Tag this thread for the sampling profiler: on a pool worker the
    // coordinator's StageScope tag does not apply, so without this the
    // fan-out's samples would fold under stage:untagged.
    obs::prof::ScopedStageTag stage_tag("execute_blocks");
    BlockTiming& timing = report.timings[i];
    timing.worker_id = ThreadPool::CurrentWorkerId();
    timing.start = std::chrono::steady_clock::now();
    // Fault site: an injected error here is an infrastructure failure of
    // the manager itself (not the untrusted program), so it surfaces as an
    // ExecuteOnBlocks error rather than a per-block fallback.
    if (failpoints::Eval("exec.computation_manager.block") !=
        failpoints::FireAction::kNone) {
      timing.end = std::chrono::steady_clock::now();
      statuses[i] = Status::Internal(
          failpoints::InjectedMessage("exec.computation_manager.block"));
      return;
    }
    Result<ChamberRun> run = Status::Internal("never ran");
    // Each block is gathered here, on the thread that runs it: straight
    // into a pooled worker's segment, or into a fresh store.
    if (use_pool) {
      run = chamber_pool_->Execute(pool_token, blocks, i, fallback);
    } else if (chamber_.policy().process_isolation) {
      run = ProcessChamber(chamber_.policy())
                .Execute(factory, blocks.block(i), fallback);
    } else {
      run = chamber_.Execute(factory, blocks.block(i), fallback);
    }
    timing.end = std::chrono::steady_clock::now();
    if (!run.ok()) {
      statuses[i] = run.status();
      return;
    }
    ChamberRun& out = report.runs[i] = std::move(run).value();
    // Clamping passes NaN through, and one NaN block would make the
    // release NaN: substitute the fallback, as for a wrong arity.
    if (!out.used_fallback &&
        std::any_of(out.output.begin(), out.output.end(),
                    [](double x) { return std::isnan(x); })) {
      out.used_fallback = true;
      out.output = fallback;
      out.program_status =
          Status::NumericalError("program output holds a NaN");
    }
  };

  if (!use_pool && pool_ != nullptr && chamber_.policy().process_isolation) {
    return Status::InvalidArgument(
        "process isolation requires the sequential computation manager "
        "(forking from a multi-threaded pool is unsafe)");
  }
  if (pool_ != nullptr) {
    pool_->ParallelFor(blocks.num_blocks(), execute_one);
  } else {
    for (std::size_t i = 0; i < blocks.num_blocks(); ++i) execute_one(i);
  }

  for (const Status& s : statuses) {
    GUPT_RETURN_IF_ERROR(s);
  }
  for (const ChamberRun& run : report.runs) {
    if (run.used_fallback) ++report.fallback_count;
    if (run.deadline_exceeded) ++report.deadline_exceeded_count;
    report.policy_violation_count += run.policy_violations;
    report.child_user_cpu_ns += run.child_user_cpu_ns;
    report.child_sys_cpu_ns += run.child_sys_cpu_ns;
    report.child_max_rss_kb =
        std::max(report.child_max_rss_kb, run.child_max_rss_kb);
    block_duration_histogram_->Observe(
        std::chrono::duration<double>(run.elapsed).count());
    (run.used_fallback ? blocks_fallback_counter_ : blocks_ok_counter_)
        ->Increment();
  }
  deadline_counter_->Increment(
      static_cast<double>(report.deadline_exceeded_count));
  violation_counter_->Increment(
      static_cast<double>(report.policy_violation_count));
  if (report.child_user_cpu_ns > 0) {
    child_user_cpu_counter_->Increment(
        static_cast<double>(report.child_user_cpu_ns) / 1e9);
  }
  if (report.child_sys_cpu_ns > 0) {
    child_sys_cpu_counter_->Increment(
        static_cast<double>(report.child_sys_cpu_ns) / 1e9);
  }
  const double child_rss_bytes =
      static_cast<double>(report.child_max_rss_kb) * 1024.0;
  if (child_rss_bytes > child_max_rss_gauge_->Value()) {
    child_max_rss_gauge_->Set(child_rss_bytes);  // racy max: a watermark
  }
  return report;
}

}  // namespace gupt
