// Query vocabulary and the context threaded through the staged pipeline.
//
// A query's life is an ordered walk over stage objects (see
// docs/architecture.md): Plan -> Admit -> Partition -> ExecuteBlocks ->
// Aggregate -> Release. The QueryContext is the single mutable record the
// stages hand to one another: the analyst's spec, the resolved plan, the
// query's forked RNG, its trace, the dataset handle, and every
// intermediate product (partition, block outputs, clamped averages). A
// context belongs to exactly one query on exactly one coordinating thread;
// stages never share it across queries.

#ifndef GUPT_CORE_PIPELINE_QUERY_CONTEXT_H_
#define GUPT_CORE_PIPELINE_QUERY_CONTEXT_H_

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/budget_estimator.h"
#include "core/output_range.h"
#include "core/sample_aggregate.h"
#include "data/dataset_manager.h"
#include "data/partitioner.h"
#include "exec/computation_manager.h"
#include "exec/program.h"
#include "obs/prof/rusage.h"
#include "obs/trace.h"

namespace gupt {

/// How the declared epsilon maps onto per-dimension mechanism budgets.
enum class BudgetAccounting {
  /// Theorem 1 (default): the declared epsilon is the query's total; it is
  /// split across the p output dimensions (and halved for range
  /// estimation in loose/helper modes).
  kTheorem1,
  /// The paper's evaluation configuration: the declared epsilon applies to
  /// each released output dimension (the formal guarantee is then p * eps
  /// for a p-dimensional output). The accountant is still charged only the
  /// declared epsilon, matching how the paper reports its x-axes.
  kPerDimension,
};

/// One analyst query.
struct QuerySpec {
  /// Fresh-instance factory for the untrusted program.
  ProgramFactory program;
  /// Opaque token resolvable by pre-warmed chamber-pool workers (see
  /// exec/chamber_pool.h). Empty = this program cannot be shipped to the
  /// pool and runs on the in-process or fork-per-block chamber instead.
  std::string pool_program;
  /// Output-range declaration (tight / loose / helper).
  OutputRangeSpec range;

  /// Explicit privacy budget for the whole query. Exactly one of `epsilon`
  /// and `accuracy_goal` must be set.
  std::optional<double> epsilon;
  /// Accuracy goal to be converted into a budget (§5.1); requires the
  /// dataset to have an aged slice and the program to output one dimension.
  std::optional<AccuracyGoal> accuracy_goal;

  /// Explicit block size beta. When absent the runtime uses the aged-data
  /// planner if `optimize_block_size` is set and an aged slice exists, and
  /// otherwise the paper's default of n^0.6 (l = n^0.4 blocks).
  std::optional<std::size_t> block_size;
  bool optimize_block_size = false;
  /// Resampling factor gamma (§4.2); 1 disables resampling.
  std::size_t gamma = 1;
  /// Epsilon interpretation for multi-dimensional outputs.
  BudgetAccounting accounting = BudgetAccounting::kTheorem1;
  /// Bernoulli inclusion probability of an amplification-by-sampling
  /// subsample (dp/amplification.h), in (0, 1]; unset runs the query on
  /// the full data and charges the declared budget. Setting it CHANGES THE
  /// MECHANISM: the pipeline draws a Bernoulli(rate) subsample of the
  /// dataset, partitions only the subsample, and aggregates only over it —
  /// that is what makes the amplified ledger charge
  /// AmplifiedEpsilon(epsilon, rate) sound (averaging all blocks of a full
  /// partition is parallel composition, not amplification). The noise stays
  /// calibrated at the declared (or accuracy-solved) epsilon. Requires
  /// gamma == 1 and a tight/loose range declaration (helper mode reads
  /// records outside the subsample); 1.0 draws nothing and charges exactly
  /// epsilon. The runtime never infers a rate from the block geometry.
  std::optional<double> amplification_rate;
  /// User-level privacy (paper §8.1): when one user may own up to this
  /// many records, all sensitivities are scaled by it (group privacy), so
  /// the release is epsilon-DP at the *user* level. 1 = record-level DP.
  std::size_t records_per_user = 1;
};

/// What the analyst gets back, plus runtime diagnostics.
struct QueryReport {
  /// The differentially private output.
  Row output;
  /// Total budget charged to the dataset.
  double epsilon_spent = 0.0;
  /// SAF aggregation budget per output dimension.
  double epsilon_saf_per_dim = 0.0;
  std::size_t block_size = 0;
  std::size_t num_blocks = 0;
  std::size_t gamma = 1;
  /// Amplification-by-sampling diagnostics: the Bernoulli rate of the
  /// pre-partition subsample (unset when the query ran on the full data),
  /// and the raw epsilon the noise was calibrated at (== epsilon_spent
  /// when unamplified).
  std::optional<double> sampling_rate;
  double epsilon_raw = 0.0;
  /// The clamp ranges actually used for aggregation.
  std::vector<Range> effective_ranges;
  /// Chamber diagnostics (visible to the trusted operator only).
  std::size_t fallback_blocks = 0;
  std::size_t deadline_exceeded_blocks = 0;
  std::size_t policy_violations = 0;
  std::chrono::nanoseconds elapsed{0};
  /// Per-stage timings and DP gauges for this query (operator-visible
  /// diagnostics; see docs/observability.md for the stage vocabulary).
  obs::QueryTrace trace;
  /// Resource ledger for this query: coordinator-thread CPU and rusage
  /// deltas over the stage walk, plus summed process-chamber child
  /// rusage. Filled by the pipeline driver (see docs/observability.md).
  obs::prof::ResourceLedger resources;
};

/// Everything decided about a query before any budget is charged.
struct QueryPlan {
  std::size_t output_dims = 0;
  std::size_t block_size = 0;
  std::size_t num_blocks = 0;
  std::size_t gamma = 1;
  double epsilon_saf_per_dim = 0.0;
  double epsilon_total = 0.0;
  /// The Bernoulli rate of the subsample PartitionStage must draw, copied
  /// from the spec (unset = no subsample, and AdmitStage charges
  /// epsilon_total bit-for-bit). When set, AdmitStage charges the amplified
  /// AmplifiedEpsilon(epsilon_total, rate) and `num_blocks` is FIXED at
  /// plan time from the expected subsample size; PartitionStage refuses
  /// (rather than repartitions) in the astronomically unlikely event the
  /// realised subsample is smaller than the planned block count, so the
  /// noise scale never depends on the realised sample size.
  std::optional<double> sampling_rate;
  /// Ranges known before execution (declared, or helper-translated from
  /// *loose* inputs for width estimation); loose mode refines after.
  std::vector<Range> planning_ranges;
};

/// The mutable record one query carries through the stage sequence.
///
/// Ownership rules (also in docs/architecture.md):
///   * The context does NOT own the dataset, spec, RNG, or trace — the
///     driver (GuptRuntime) keeps them alive for the whole walk.
///   * Everything else (plan, partition, block outputs, report) is owned
///     by the context and written by exactly one stage each.
///   * `trace` may be null (e.g. provisional shared-budget planning);
///     stage histograms are still recorded in the process-global registry.
struct QueryContext {
  QueryContext(RegisteredDataset& dataset, const QuerySpec& query_spec,
               Rng* query_rng, obs::QueryTrace* query_trace)
      : ds(&dataset), spec(&query_spec), rng(query_rng), trace(query_trace) {}

  RegisteredDataset* ds;    // not owned
  const QuerySpec* spec;    // not owned
  Rng* rng;                 // not owned
  obs::QueryTrace* trace;   // not owned; may be null

  /// Filled by PlanStage — or by the driver (with `plan_resolved` set)
  /// when the plan was decided elsewhere, e.g. by the shared-budget
  /// allocator (§5.2). PlanStage is a no-op for a resolved plan.
  QueryPlan plan;
  bool plan_resolved = false;

  // --- written by AdmitStage ---------------------------------------------
  /// Audit label, e.g. "mean [tight]".
  std::string label;
  /// Clamp ranges for aggregation; starts as the planning ranges, refined
  /// by helper (AdmitStage) or loose (AggregateStage) estimation.
  std::vector<Range> effective_ranges;
  /// Data-independent substitute for killed/failed blocks (§6.2).
  Row fallback;
  /// Start of the post-plan phase; ReleaseStage stamps report.elapsed.
  std::chrono::steady_clock::time_point admitted_at;

  // --- written by PartitionStage -----------------------------------------
  /// Block-shuffled materialization: one gather, zero-copy block views.
  BlockSet blocks;

  /// Per-query scratch (partition permutations and gather indices); reset
  /// between pipeline walks of the same context, never shared across
  /// coordinator threads.
  Arena arena;

  // --- written by ExecuteBlocksStage -------------------------------------
  BlockExecutionReport exec_report;
  std::vector<Row> block_outputs;

  // --- written by AggregateStage -----------------------------------------
  Row averages;
  AggregateResult aggregate;

  /// Assembled incrementally; finalised by ReleaseStage.
  QueryReport report;
};

}  // namespace gupt

#endif  // GUPT_CORE_PIPELINE_QUERY_CONTEXT_H_
