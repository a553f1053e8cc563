#include "core/pipeline/stages.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/block_planner.h"
#include "dp/amplification.h"
#include "core/sample_aggregate.h"
#include "data/partitioner.h"
#include "exec/computation_manager.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

/// A stage's wall-time and coordinator-thread CPU histograms, both
/// labelled by stage name.
struct StageHistograms {
  obs::Histogram* wall;
  obs::Histogram* cpu;
};

/// Resolves `stage`'s histograms from the registry on the stage's first
/// use, so each series still appears when its stage first runs, and from a
/// small name-keyed map afterwards: a registry lookup takes the registry's
/// global mutex and rebuilds the label set, once per StageScope otherwise.
const StageHistograms& HistogramsFor(const char* stage) {
  static std::mutex mu;
  static auto* resolved = new std::map<std::string, StageHistograms,
                                       std::less<>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = resolved->find(std::string_view(stage));
  if (it == resolved->end()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    StageHistograms histograms;
    histograms.wall = registry.GetHistogram(
        "gupt_runtime_stage_duration_seconds",
        "Wall time of one GUPT pipeline stage (see docs/observability.md).",
        obs::Histogram::DurationBuckets(), {{"stage", stage}});
    histograms.cpu = registry.GetHistogram(
        "gupt_prof_stage_cpu_seconds",
        "Coordinator-thread CPU time of one GUPT pipeline stage "
        "(CLOCK_THREAD_CPUTIME_ID delta; see docs/observability.md).",
        obs::Histogram::DurationBuckets(), {{"stage", stage}});
    it = resolved->emplace(stage, histograms).first;
  }
  return it->second;
}

Row RangeMidpoints(const std::vector<Range>& ranges) {
  Row mid(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    mid[i] = 0.5 * (ranges[i].lo + ranges[i].hi);
  }
  return mid;
}

Status ValidateRanges(const std::vector<Range>& ranges, std::size_t arity,
                      const char* what) {
  if (ranges.size() != arity) {
    return Status::InvalidArgument(
        std::string(what) + " arity " + std::to_string(ranges.size()) +
        " does not match expected " + std::to_string(arity));
  }
  for (const Range& r : ranges) {
    if (!(r.lo <= r.hi) || !std::isfinite(r.lo) || !std::isfinite(r.hi)) {
      return Status::InvalidArgument(std::string(what) + " contains lo > hi");
    }
  }
  return Status::OK();
}

/// The loose input ranges a helper-mode query should use: the spec's, or
/// the data owner's registered ranges.
Result<std::vector<Range>> ResolveLooseInputRanges(const RegisteredDataset& ds,
                                                   const QuerySpec& spec) {
  if (!spec.range.loose_input_ranges.empty()) {
    GUPT_RETURN_IF_ERROR(ValidateRanges(spec.range.loose_input_ranges,
                                        ds.data().num_dims(),
                                        "loose input ranges"));
    return spec.range.loose_input_ranges;
  }
  if (ds.input_ranges() != nullptr) {
    return *ds.input_ranges();
  }
  return Status::InvalidArgument(
      "GUPT-helper requires loose input ranges (from the query or the data "
      "owner's registration)");
}

}  // namespace

StageScope::StageScope(obs::QueryTrace* trace, const char* stage)
    : trace_(trace),
      stage_(stage),
      start_(std::chrono::steady_clock::now()),
      cpu_start_(obs::prof::ThreadCpuNanos()),
      stage_tag_(stage) {}

StageScope::~StageScope() {
  const std::int64_t cpu_ns = obs::prof::ThreadCpuNanos() - cpu_start_;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  if (trace_ != nullptr) {
    obs::SpanRecord span;
    span.name = stage_;
    span.start_ns = obs::NanosSinceTraceEpoch(start_);
    span.duration =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed);
    span.ok = ok_;
    span.note = std::move(note_);
    span.cpu_ns = cpu_ns >= 0 ? cpu_ns : -1;
    trace_->AddSpan(std::move(span));
  }
  const StageHistograms& histograms = HistogramsFor(stage_);
  histograms.wall->Observe(std::chrono::duration<double>(elapsed).count());
  histograms.cpu->Observe(cpu_ns >= 0 ? static_cast<double>(cpu_ns) / 1e9
                                      : 0.0);
}

double ModeMultiplier(RangeMode mode) {
  return mode == RangeMode::kTight ? 1.0 : 2.0;
}

double EffectiveOutputDims(const QuerySpec& spec, std::size_t output_dims) {
  return spec.accounting == BudgetAccounting::kPerDimension
             ? 1.0
             : static_cast<double>(output_dims);
}

PipelineMetrics PipelineMetrics::Register() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  PipelineMetrics metrics;
  metrics.queries_ok = registry.GetCounter(
      "gupt_runtime_queries_total", "Queries executed, by outcome.",
      {{"outcome", "ok"}});
  metrics.queries_error = registry.GetCounter(
      "gupt_runtime_queries_total", "Queries executed, by outcome.",
      {{"outcome", "error"}});
  metrics.query_duration = registry.GetHistogram(
      "gupt_runtime_query_duration_seconds",
      "End-to-end wall time of one query (planning through release).",
      obs::Histogram::DurationBuckets());
  metrics.epsilon_charged = registry.GetCounter(
      "gupt_dp_epsilon_charged_total",
      "Total privacy budget charged across all datasets and queries.");
  metrics.noise_scale = registry.GetGauge(
      "gupt_dp_noise_scale",
      "Largest per-dimension Laplace scale used by the last release.");
  metrics.block_count = registry.GetGauge(
      "gupt_dp_block_count", "Number of blocks (l) in the last query.");
  metrics.block_size = registry.GetGauge(
      "gupt_dp_block_size_count",
      "Records per block (beta) in the last query.");
  metrics.gamma = registry.GetGauge(
      "gupt_dp_gamma_ratio",
      "Resampling multiplicity (gamma) of the last query.");
  metrics.query_cpu = registry.GetHistogram(
      "gupt_prof_query_cpu_seconds",
      "Coordinator-thread CPU time of one query (plan through release).",
      obs::Histogram::DurationBuckets());
  metrics.minor_faults = registry.GetCounter(
      "gupt_rusage_minor_faults_total",
      "Coordinator-thread minor page faults during query execution.");
  metrics.major_faults = registry.GetCounter(
      "gupt_rusage_major_faults_total",
      "Coordinator-thread major page faults during query execution.");
  metrics.ctx_switches_voluntary = registry.GetCounter(
      "gupt_rusage_ctx_switches_total",
      "Coordinator-thread context switches during query execution, by kind.",
      {{"kind", "voluntary"}});
  metrics.ctx_switches_involuntary = registry.GetCounter(
      "gupt_rusage_ctx_switches_total",
      "Coordinator-thread context switches during query execution, by kind.",
      {{"kind", "involuntary"}});
  metrics.process_max_rss = registry.GetGauge(
      "gupt_rusage_process_max_rss_bytes",
      "Process high-water RSS at the last query release.");
  metrics.amplification_queries = registry.GetCounter(
      "gupt_amplification_queries_total",
      "Queries admitted with amplification-by-sampling charging enabled.");
  metrics.amplification_sampling_rate = registry.GetGauge(
      "gupt_amplification_sampling_rate_ratio",
      "Bernoulli rate of the last amplified query's pre-partition "
      "subsample.");
  metrics.amplification_epsilon_saved = registry.GetCounter(
      "gupt_amplification_epsilon_saved_total",
      "Budget saved by amplification: sum of raw epsilon minus amplified "
      "charge over all amplified queries.");
  return metrics;
}

Status PlanStage::Run(QueryContext& ctx) const {
  // Each stage's fault site sits at Run() entry: an injected error there
  // models the stage failing before any of its effects, which pins down
  // the charge semantics (pre-admit fails charge nothing; post-admit fails
  // keep the up-front charge — tests/core/pipeline_fault_test.cc).
  GUPT_FAILPOINT_STATUS("core.pipeline.plan");
  if (ctx.plan_resolved) return Status::OK();  // decided by the driver
  const QuerySpec& spec = *ctx.spec;
  const RegisteredDataset& ds = *ctx.ds;
  if (!spec.program) {
    return Status::InvalidArgument("query has no program");
  }
  if (spec.epsilon.has_value() == spec.accuracy_goal.has_value()) {
    return Status::InvalidArgument(
        "exactly one of epsilon and accuracy_goal must be set");
  }
  if (spec.gamma == 0) {
    return Status::InvalidArgument("gamma must be >= 1");
  }
  if (spec.records_per_user == 0) {
    return Status::InvalidArgument("records_per_user must be >= 1");
  }

  QueryPlan& plan = ctx.plan;
  plan.gamma = spec.gamma;
  {
    std::unique_ptr<AnalysisProgram> probe = spec.program();
    if (!probe) {
      return Status::InvalidArgument("program factory returned null");
    }
    plan.output_dims = probe->output_dims();
  }
  if (plan.output_dims == 0) {
    return Status::InvalidArgument("program declares zero output dimensions");
  }
  const std::size_t n = ds.data().num_rows();
  const double p = EffectiveOutputDims(spec, plan.output_dims);
  const double multiplier = ModeMultiplier(spec.range.mode);

  // Amplification by sampling (dp/amplification.h). The amplified charge
  // is sound only when the release depends on a single random
  // gamma-subsample — averaging all blocks of a full partition is
  // parallel composition, already priced into the raw epsilon. So a
  // declared rate commits PartitionStage to drawing a Bernoulli(rate)
  // subsample and the whole plan (block geometry included) is laid out
  // against the subsample's expected size. The block count is fixed HERE,
  // from public quantities only, so the noise scale never depends on the
  // realised sample size.
  plan.sampling_rate = spec.amplification_rate;
  // Rows the mechanism will see: n, or the expected subsample size.
  std::size_t n_mech = n;
  if (plan.sampling_rate.has_value()) {
    // Pre-admission fault site: an injected failure here aborts the query
    // before AdmitStage, so nothing may be charged.
    GUPT_FAILPOINT_STATUS("core.amplify.calibrate");
    const double rate = *plan.sampling_rate;
    if (!std::isfinite(rate) || rate <= 0.0 || rate > 1.0) {
      return Status::InvalidArgument(
          "amplification_rate must be in (0, 1]");
    }
    if (spec.gamma != 1) {
      return Status::InvalidArgument(
          "amplification requires gamma == 1: a resampled partition's "
          "block count depends on the realised subsample size, which "
          "breaks the fixed-geometry sensitivity argument");
    }
    if (spec.range.mode == RangeMode::kHelper) {
      return Status::InvalidArgument(
          "amplification does not support helper mode: input-range "
          "estimation reads records outside the subsample, so the release "
          "would no longer depend on the subsample alone");
    }
    if (rate < 1.0) {
      n_mech = static_cast<std::size_t>(std::llround(rate * static_cast<double>(n)));
      n_mech = std::max<std::size_t>(1, std::min(n_mech, n));
    }
  }

  // Planning-time output ranges: declared for tight/loose; for helper,
  // translated from the *loose* (public) input ranges — no privacy cost,
  // and only used for widths and fallback values, never to clamp real
  // outputs.
  switch (spec.range.mode) {
    case RangeMode::kTight:
    case RangeMode::kLoose:
      GUPT_RETURN_IF_ERROR(ValidateRanges(spec.range.declared_ranges,
                                          plan.output_dims,
                                          "declared output ranges"));
      plan.planning_ranges = spec.range.declared_ranges;
      break;
    case RangeMode::kHelper: {
      if (!spec.range.translator) {
        return Status::InvalidArgument("GUPT-helper requires a translator");
      }
      GUPT_ASSIGN_OR_RETURN(std::vector<Range> loose_input,
                            ResolveLooseInputRanges(ds, spec));
      GUPT_ASSIGN_OR_RETURN(plan.planning_ranges,
                            spec.range.translator(loose_input));
      GUPT_RETURN_IF_ERROR(ValidateRanges(plan.planning_ranges,
                                          plan.output_dims,
                                          "translated output ranges"));
      break;
    }
  }

  std::vector<double> widths(plan.output_dims);
  for (std::size_t d = 0; d < plan.output_dims; ++d) {
    widths[d] = plan.planning_ranges[d].width();
  }

  // Block size: explicit > aged-data planner > paper default n^0.6 — all
  // laid out against n_mech, the rows the mechanism will actually see
  // (the expected subsample size under amplification, n otherwise).
  {
    StageScope stage(ctx.trace, "block_plan");
    if (spec.block_size.has_value()) {
      if (*spec.block_size == 0 || *spec.block_size > n_mech) {
        stage.set_ok(false);
        return Status::InvalidArgument(
            n_mech == n ? "block_size must be in [1, n]"
                        : "block_size must be in [1, rate * n] under "
                          "amplification (blocks partition the subsample)");
      }
      plan.block_size = *spec.block_size;
      stage.set_note("explicit");
    } else if (spec.optimize_block_size && ds.aged() != nullptr) {
      BlockPlannerOptions planner_options;
      // When the budget is known, plan against its SAF share. With an
      // accuracy goal the budget is solved *after* the block size, so plan
      // with a provisional unit budget (the paper sequences it the same
      // way).
      planner_options.epsilon_per_dim =
          spec.epsilon ? *spec.epsilon / (multiplier * p) : 1.0;
      planner_options.range_widths = widths;
      Result<BlockPlanChoice> choice = PlanBlockSize(
          *ds.aged(), n_mech, spec.program, planner_options, ctx.rng);
      if (!choice.ok()) {
        stage.set_ok(false);
        return choice.status();
      }
      plan.block_size = choice->block_size;
      stage.set_note("aged_planner");
      GUPT_LOG(kInfo) << "block planner chose beta=" << choice->block_size
                      << " (alpha=" << choice->alpha << ", predicted error "
                      << choice->predicted_error << ")";
    } else {
      std::size_t num_blocks = DefaultNumBlocks(n_mech);
      plan.block_size = std::max<std::size_t>(1, n_mech / num_blocks);
      stage.set_note("default_n06");
    }
    plan.block_size = std::min(plan.block_size, n_mech);
  }

  const std::size_t blocks_per_group =
      (n_mech + plan.block_size - 1) / plan.block_size;
  plan.num_blocks = plan.gamma * blocks_per_group;

  // Privacy budget: explicit, or solved from the accuracy goal (§5.1).
  {
    StageScope stage(ctx.trace, "budget_derive");
    if (spec.epsilon.has_value()) {
      if (!(*spec.epsilon > 0.0)) {
        stage.set_ok(false);
        return Status::InvalidArgument("epsilon must be positive");
      }
      plan.epsilon_total = *spec.epsilon;
      plan.epsilon_saf_per_dim = plan.epsilon_total / (multiplier * p);
      stage.set_note("explicit");
    } else {
      if (ds.aged() == nullptr) {
        stage.set_ok(false);
        return Status::InvalidArgument(
            "accuracy goals require an aged slice (aging-of-sensitivity "
            "model)");
      }
      if (plan.output_dims != 1) {
        stage.set_ok(false);
        return Status::InvalidArgument(
            "accuracy goals are supported for scalar-output programs");
      }
      BudgetEstimatorOptions est;
      est.goal = *spec.accuracy_goal;
      est.block_size = plan.block_size;
      est.range_width = widths[0];
      Result<BudgetEstimate> estimate = EstimateBudgetForAccuracy(
          *ds.aged(), n_mech, spec.program, est, ctx.rng);
      if (!estimate.ok()) {
        stage.set_ok(false);
        return estimate.status();
      }
      plan.epsilon_saf_per_dim = estimate->epsilon;
      plan.epsilon_total = multiplier * p * plan.epsilon_saf_per_dim;
      stage.set_note("accuracy_goal");
    }
  }

  return Status::OK();
}

Status AdmitStage::Run(QueryContext& ctx) const {
  GUPT_FAILPOINT_STATUS("core.pipeline.admit");
  const QuerySpec& spec = *ctx.spec;
  const QueryPlan& plan = ctx.plan;
  ctx.admitted_at = std::chrono::steady_clock::now();

  // Charge the full budget up front: a program that later misbehaves (or a
  // malicious analyst who aborts mid-query) cannot reclaim or overdraw it.
  {
    std::unique_ptr<AnalysisProgram> probe = spec.program();
    ctx.label = probe->name() + " [" + RangeModeToString(spec.range.mode) + "]";
  }
  // A declared rate debits the amplified epsilon' while the noise
  // downstream stays calibrated at the raw plan.epsilon_total. Without one
  // the ledger is charged epsilon_total itself — the historical code path,
  // which also covers hand-resolved plans whose epsilon_total was edited
  // after planning.
  double charge = plan.epsilon_total;
  if (plan.sampling_rate.has_value()) {
    GUPT_ASSIGN_OR_RETURN(
        charge, dp::AmplifiedEpsilon(plan.epsilon_total, *plan.sampling_rate));
    // Fault site immediately before the debit: fire => ledger untouched.
    GUPT_FAILPOINT_STATUS("core.amplify.charge");
  }
  {
    StageScope stage(ctx.trace, "budget_charge");
    Status charged = ctx.ds->accountant().Charge(charge, ctx.label);
    if (!charged.ok()) {
      stage.set_ok(false);
      return charged;
    }
  }
  metrics_->epsilon_charged->Increment(charge);
  if (plan.sampling_rate.has_value()) {
    metrics_->amplification_queries->Increment(1.0);
    metrics_->amplification_sampling_rate->Set(*plan.sampling_rate);
    metrics_->amplification_epsilon_saved->Increment(plan.epsilon_total -
                                                     charge);
  }

  ctx.report.epsilon_spent = charge;
  ctx.report.epsilon_saf_per_dim = plan.epsilon_saf_per_dim;
  ctx.report.sampling_rate = plan.sampling_rate;
  ctx.report.epsilon_raw = plan.epsilon_total;
  ctx.report.block_size = plan.block_size;
  ctx.report.gamma = plan.gamma;

  // Effective clamp ranges known before execution for tight mode; helper
  // estimates them from private inputs now (charged within epsilon_total);
  // loose refines from block outputs after execution.
  ctx.effective_ranges = plan.planning_ranges;
  if (spec.range.mode == RangeMode::kHelper) {
    StageScope stage(ctx.trace, "range_estimate");
    stage.set_note("helper_inputs");
    Result<std::vector<Range>> loose_input =
        ResolveLooseInputRanges(*ctx.ds, spec);
    if (!loose_input.ok()) {
      stage.set_ok(false);
      return loose_input.status();
    }
    const std::size_t k = ctx.ds->data().num_dims();
    // Theorem 1: the input percentile pass gets epsilon/2 in total, split
    // evenly over the k input dimensions.
    double epsilon_per_input_dim =
        plan.epsilon_total / (2.0 * static_cast<double>(k));
    // User-level privacy scales the percentile mechanism's rank
    // sensitivity by the per-user record count (group privacy).
    epsilon_per_input_dim /= static_cast<double>(spec.records_per_user);
    Result<std::vector<Range>> estimated = EstimateRangesViaTranslator(
        ctx.ds->data(), *loose_input, spec.range.translator,
        epsilon_per_input_dim, plan.output_dims, ctx.rng,
        spec.range.lower_percentile, spec.range.upper_percentile);
    if (!estimated.ok()) {
      stage.set_ok(false);
      return estimated.status();
    }
    ctx.effective_ranges = std::move(estimated).value();
  }

  // The constant substituted for killed/failed blocks must be data
  // independent and inside the expected output range (§6.2): use the
  // midpoint of the pre-execution planning ranges.
  ctx.fallback = RangeMidpoints(plan.planning_ranges);
  return Status::OK();
}

Status PartitionStage::Run(QueryContext& ctx) const {
  GUPT_FAILPOINT_STATUS("core.pipeline.partition");
  const QueryPlan& plan = ctx.plan;
  const std::size_t n = ctx.ds->data().num_rows();
  StageScope stage(ctx.trace, "partition");
  ctx.arena.Reset();

  // Amplification subsample: the release may depend only on a single
  // Bernoulli(rate) subsample (dp/amplification.h), so the subsample is
  // drawn HERE, before partitioning, and only its rows are ever gathered
  // into blocks. rate == 1.0 skips the draw entirely, so a full-rate
  // amplified query consumes the exact RNG stream of an unamplified one.
  const double rate = plan.sampling_rate.value_or(1.0);
  const bool subsampled = rate < 1.0;
  std::optional<Dataset> subsample;
  if (subsampled) {
    std::vector<std::size_t> keep;
    keep.reserve(static_cast<std::size_t>(
        rate * static_cast<double>(n) * 1.1) + 16);
    for (std::size_t i = 0; i < n; ++i) {
      if (ctx.rng->Bernoulli(rate)) {
        keep.push_back(i);
      }
    }
    if (keep.size() < plan.num_blocks) {
      // The block count was fixed at plan time from the *expected*
      // subsample size; repartitioning to the realised size would make the
      // noise scale data-dependent. Refuse instead — an astronomically
      // unlikely tail at any realistic n. The admitted charge stands
      // (conservative direction); retrying draws a fresh subsample.
      stage.set_ok(false);
      return Status::Unavailable(
          "amplification subsample too small for the planned block count "
          "(drew " + std::to_string(keep.size()) + " rows, need " +
          std::to_string(plan.num_blocks) + "); the admitted charge stands, "
          "re-running the query draws a fresh subsample");
    }
    Result<Dataset> gathered = ctx.ds->data().Subset(keep);
    if (!gathered.ok()) {
      stage.set_ok(false);
      return gathered.status();
    }
    subsample.emplace(std::move(gathered).value());
  }
  const Dataset& rows = subsampled ? *subsample : ctx.ds->data();
  const std::size_t n_rows = rows.num_rows();

  // Fused partition+gather: the RNG stream is identical to the old
  // index-plan path, and each block view holds the same rows in the same
  // order the per-block Subset copies used to produce. The BlockSet owns
  // its gathered store, so a temporary subsample dataset is safe.
  Result<BlockSet> partitioned =
      plan.gamma > 1
          ? PartitionResampledView(rows, plan.block_size, plan.gamma,
                                   ctx.rng, &ctx.arena)
          : PartitionDisjointView(
                rows,
                std::max<std::size_t>(1, std::min(plan.num_blocks, n_rows)),
                ctx.rng, &ctx.arena);
  if (!partitioned.ok()) {
    stage.set_ok(false);
    return partitioned.status();
  }
  ctx.blocks = std::move(partitioned).value();
  stage.set_note("l=" + std::to_string(ctx.blocks.num_blocks()) +
                 " beta=" + std::to_string(plan.block_size) +
                 (subsampled ? " m=" + std::to_string(n_rows) : ""));
  ctx.report.num_blocks = ctx.blocks.num_blocks();
  return Status::OK();
}

Status ExecuteBlocksStage::Run(QueryContext& ctx) const {
  GUPT_FAILPOINT_STATUS("core.pipeline.execute_blocks");
  {
    StageScope stage(ctx.trace, "execute_blocks");
    Result<BlockExecutionReport> executed = manager_->ExecuteOnBlocks(
        ctx.spec->program, ctx.blocks, ctx.fallback, ctx.spec->pool_program);
    if (!executed.ok()) {
      stage.set_ok(false);
      return executed.status();
    }
    ctx.exec_report = std::move(executed).value();
    if (ctx.exec_report.fallback_count > 0) {
      stage.set_note("fallbacks=" +
                     std::to_string(ctx.exec_report.fallback_count));
    }
  }
  // Fold the per-block scheduling facts into the trace (coordinator-side,
  // after the fan-out joins — QueryTrace is single-writer).
  if (ctx.trace != nullptr) {
    for (std::size_t i = 0; i < ctx.exec_report.timings.size(); ++i) {
      const BlockTiming& timing = ctx.exec_report.timings[i];
      obs::BlockSpan span;
      span.block_index = i;
      span.worker_id = timing.worker_id;
      span.start_ns = obs::NanosSinceTraceEpoch(timing.start);
      span.duration_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             timing.end - timing.start)
                             .count();
      span.ok = i < ctx.exec_report.runs.size() &&
                !ctx.exec_report.runs[i].used_fallback;
      ctx.trace->AddBlockSpan(span);
    }
  }
  ctx.report.fallback_blocks = ctx.exec_report.fallback_count;
  ctx.report.deadline_exceeded_blocks = ctx.exec_report.deadline_exceeded_count;
  ctx.report.policy_violations = ctx.exec_report.policy_violation_count;
  if (ctx.report.fallback_blocks > 0 || ctx.report.policy_violations > 0) {
    GUPT_LOG(kWarning) << "query '" << ctx.label << "': "
                       << ctx.report.fallback_blocks << "/"
                       << ctx.report.num_blocks << " blocks fell back ("
                       << ctx.report.deadline_exceeded_blocks
                       << " killed at the cycle budget), "
                       << ctx.report.policy_violations << " policy violations";
  }
  ctx.block_outputs = ctx.exec_report.Outputs();
  return Status::OK();
}

Status AggregateStage::Run(QueryContext& ctx) const {
  GUPT_FAILPOINT_STATUS("core.pipeline.aggregate");
  const QuerySpec& spec = *ctx.spec;
  const QueryPlan& plan = ctx.plan;

  if (spec.range.mode == RangeMode::kLoose) {
    StageScope stage(ctx.trace, "range_estimate");
    stage.set_note("loose_outputs");
    // Theorem 1: epsilon/(2p) per output dimension for the percentile pass
    // (just epsilon/2 under per-dimension accounting).
    double p_eff = EffectiveOutputDims(spec, plan.output_dims);
    double epsilon_per_output_dim = plan.epsilon_total / (2.0 * p_eff);
    Result<std::vector<Range>> estimated = EstimateRangesFromBlockOutputs(
        ctx.block_outputs, spec.range.declared_ranges, epsilon_per_output_dim,
        plan.gamma * spec.records_per_user, ctx.rng,
        spec.range.lower_percentile, spec.range.upper_percentile);
    if (!estimated.ok()) {
      stage.set_ok(false);
      return estimated.status();
    }
    ctx.effective_ranges = std::move(estimated).value();
  }

  AggregateOptions agg;
  agg.epsilon_per_dim = plan.epsilon_saf_per_dim;
  agg.output_ranges = ctx.effective_ranges;
  // One *user* touches at most gamma * records_per_user blocks, so the
  // aggregation's sensitivity multiplier is their product (group privacy).
  agg.gamma = plan.gamma * spec.records_per_user;

  {
    StageScope stage(ctx.trace, "clamp_average");
    Result<Row> averaged = ClampAndAverage(ctx.block_outputs, agg.output_ranges);
    if (!averaged.ok()) {
      stage.set_ok(false);
      return averaged.status();
    }
    ctx.averages = std::move(averaged).value();
  }

  {
    StageScope stage(ctx.trace, "noise");
    Result<AggregateResult> noised = AddAggregationNoise(
        ctx.averages, agg, ctx.block_outputs.size(), ctx.rng);
    if (!noised.ok()) {
      stage.set_ok(false);
      return noised.status();
    }
    ctx.aggregate = std::move(noised).value();
  }
  return Status::OK();
}

Status ReleaseStage::Run(QueryContext& ctx) const {
  GUPT_FAILPOINT_STATUS("core.pipeline.release");
  const QueryPlan& plan = ctx.plan;
  QueryReport& report = ctx.report;

  double max_noise_scale = 0.0;
  for (double scale : ctx.aggregate.noise_scale) {
    max_noise_scale = std::max(max_noise_scale, scale);
  }
  metrics_->noise_scale->Set(max_noise_scale);
  metrics_->block_count->Set(static_cast<double>(report.num_blocks));
  metrics_->block_size->Set(static_cast<double>(report.block_size));
  metrics_->gamma->Set(static_cast<double>(report.gamma));
  if (ctx.trace != nullptr) {
    ctx.trace->SetGauge("epsilon_charged", report.epsilon_spent);
    ctx.trace->SetGauge("epsilon_saf_per_dim", plan.epsilon_saf_per_dim);
    if (plan.sampling_rate.has_value()) {
      ctx.trace->SetGauge("epsilon_raw", plan.epsilon_total);
      ctx.trace->SetGauge("sampling_rate", *plan.sampling_rate);
    }
    ctx.trace->SetGauge("noise_scale", max_noise_scale);
    ctx.trace->SetGauge("block_count", static_cast<double>(report.num_blocks));
    ctx.trace->SetGauge("block_size", static_cast<double>(report.block_size));
    ctx.trace->SetGauge("gamma", static_cast<double>(report.gamma));
    ctx.trace->SetGauge("fallback_blocks",
                        static_cast<double>(report.fallback_blocks));
    ctx.trace->SetGauge("deadline_exceeded_blocks",
                        static_cast<double>(report.deadline_exceeded_blocks));
    ctx.trace->SetGauge("policy_violations",
                        static_cast<double>(report.policy_violations));
  }

  report.output = std::move(ctx.aggregate.output);
  report.effective_ranges = std::move(ctx.effective_ranges);
  report.elapsed = std::chrono::steady_clock::now() - ctx.admitted_at;
  return Status::OK();
}

}  // namespace gupt
