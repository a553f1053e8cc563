#include "core/gupt.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "core/budget_allocator.h"

namespace gupt {

GuptRuntime::GuptRuntime(DatasetManager* manager, GuptOptions options)
    : manager_(manager),
      options_(options),
      pool_(options.num_workers > 0
                ? std::make_unique<ThreadPool>(options.num_workers)
                : nullptr),
      computation_manager_(pool_.get(), options.chamber_policy,
                           options.chamber_pool),
      pipeline_(&computation_manager_),
      rng_(options.seed) {}

Rng GuptRuntime::ForkRng() {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.Fork();
}

Result<QueryReport> GuptRuntime::Execute(const std::string& dataset_name,
                                         const QuerySpec& spec) {
  GUPT_ASSIGN_OR_RETURN(std::shared_ptr<RegisteredDataset> ds,
                        manager_->Get(dataset_name));
  Rng rng = ForkRng();
  obs::QueryTrace trace;
  trace.set_query_id(obs::NextQueryId());
  // Log lines emitted on this (coordinator) thread during the pipeline
  // walk carry the query id, joinable against the trace and audit record.
  ScopedLogQueryId log_scope(trace.query_id());
  QueryContext ctx(*ds, spec, &rng, &trace);
  return pipeline_.Run(ctx);
}

Result<std::vector<QueryReport>> GuptRuntime::ExecuteWithSharedBudget(
    const std::string& dataset_name, const std::vector<QuerySpec>& specs,
    double total_epsilon) {
  if (specs.empty()) {
    return Status::InvalidArgument("no queries in the batch");
  }
  GUPT_ASSIGN_OR_RETURN(std::shared_ptr<RegisteredDataset> ds,
                        manager_->Get(dataset_name));

  // Plan every query with a provisional unit budget to learn its block
  // geometry and range widths; zeta then determines the allocation (§5.2).
  std::vector<QueryPlan> plans;
  std::vector<QueryNoiseProfile> profiles;
  plans.reserve(specs.size());
  profiles.reserve(specs.size());
  Rng rng = ForkRng();
  for (const QuerySpec& spec : specs) {
    if (spec.epsilon.has_value() || spec.accuracy_goal.has_value()) {
      return Status::InvalidArgument(
          "shared-budget queries must leave epsilon and accuracy_goal unset");
    }
    if (spec.amplification_rate.has_value()) {
      // The allocator splits total_epsilon so that the slices' charges sum
      // to it; an amplified slice would be charged less than its share, so
      // a sampling rate has no well-defined meaning here. Reject rather
      // than silently degrade to different semantics than a standalone
      // query would get.
      return Status::InvalidArgument(
          "shared-budget queries do not support amplification; run the "
          "query standalone with an explicit epsilon");
    }
    QuerySpec provisional = spec;
    provisional.epsilon = 1.0;
    // Provisional planning carries no trace: only the real execution's
    // plan decisions are part of a query's story.
    QueryContext plan_ctx(*ds, provisional, &rng, nullptr);
    GUPT_ASSIGN_OR_RETURN(QueryPlan plan, pipeline_.Plan(plan_ctx));

    double max_width = 0.0;
    for (const Range& r : plan.planning_ranges) {
      max_width = std::max(max_width, r.width());
    }
    QueryNoiseProfile profile;
    {
      std::unique_ptr<AnalysisProgram> probe = spec.program();
      profile.label = probe->name();
    }
    // Weight = multiplier * p * zeta so the resulting *total* epsilons give
    // every query the same SAF noise std-dev (see budget_allocator.h).
    profile.zeta = ModeMultiplier(spec.range.mode) *
                   EffectiveOutputDims(spec, plan.output_dims) *
                   SafZeta(max_width, plan.num_blocks, plan.gamma);
    profiles.push_back(std::move(profile));
    plans.push_back(std::move(plan));
  }

  GUPT_ASSIGN_OR_RETURN(std::vector<double> epsilons,
                        AllocateBudget(profiles, total_epsilon));

  // Re-enter the shared pipeline with the allocator-derived epsilons:
  // AdmitStage charges each query exactly its allocation, and PlanStage
  // passes through because the plan is already resolved.
  std::vector<QueryReport> reports;
  reports.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    obs::QueryTrace trace;
    trace.set_query_id(obs::NextQueryId());
    ScopedLogQueryId log_scope(trace.query_id());
    QueryContext ctx(*ds, specs[i], &rng, &trace);
    ctx.plan = plans[i];
    ctx.plan.epsilon_total = epsilons[i];
    ctx.plan.epsilon_saf_per_dim =
        epsilons[i] / (ModeMultiplier(specs[i].range.mode) *
                       EffectiveOutputDims(specs[i], plans[i].output_dims));
    ctx.plan_resolved = true;
    GUPT_ASSIGN_OR_RETURN(QueryReport report, pipeline_.Run(ctx));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace gupt
