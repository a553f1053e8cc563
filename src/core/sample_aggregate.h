// The sample-and-aggregate aggregation step (paper Algorithm 1 + §4.2).
//
// Given per-block outputs O_1..O_l, the released value per output dimension
// is   clamp-average(O_i) + Lap(gamma * |max - min| / (l * epsilon)),
// where gamma is the resampling multiplicity (1 for plain SAF). Since a
// change to one record perturbs at most gamma of the l block outputs, and
// each clamped output moves the average by at most |max-min| / l, the
// average has sensitivity gamma * |max-min| / l — Claim 1's observation
// that with l = gamma*n/beta this equals beta*|max-min| / n, independent of
// gamma, is why resampling is free.

#ifndef GUPT_CORE_SAMPLE_AGGREGATE_H_
#define GUPT_CORE_SAMPLE_AGGREGATE_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/vec.h"
#include "data/dataset.h"

namespace gupt {

struct AggregateOptions {
  /// Privacy budget spent on this aggregation, per output dimension.
  double epsilon_per_dim = 1.0;
  /// Clamp range per output dimension; arity must match the outputs.
  std::vector<Range> output_ranges;
  /// Resampling multiplicity: the partition BlockSet's gamma.
  std::size_t gamma = 1;
};

/// Result of a differentially private aggregation.
struct AggregateResult {
  /// The private output, one entry per output dimension.
  Row output;
  /// The Laplace scale used per dimension (for diagnostics / allocation).
  Row noise_scale;
};

/// Clamps each block output into the per-dimension range, averages, and
/// adds Laplace noise per dimension. Errors on empty input, arity
/// mismatches, invalid ranges, non-positive epsilon, or gamma == 0.
/// Equivalent to ClampAndAverage followed by AddAggregationNoise; the two
/// halves are exposed so the runtime can time (and trace) clamping and
/// noise addition as separate pipeline stages.
Result<AggregateResult> AggregateBlockOutputs(const std::vector<Row>& outputs,
                                              const AggregateOptions& options,
                                              Rng* rng);

/// The deterministic half of Algorithm 1: clamps every block output into
/// the per-dimension range and averages. The result is NOT private until
/// AddAggregationNoise runs. Validates outputs and ranges.
Result<Row> ClampAndAverage(const std::vector<Row>& outputs,
                            const std::vector<Range>& output_ranges);

/// The noise half of Algorithm 1: adds Laplace(gamma * width / (l *
/// epsilon)) per dimension to an already clamp-averaged row. `num_blocks`
/// is the l the average was taken over. Validates epsilon/gamma.
Result<AggregateResult> AddAggregationNoise(const Row& averages,
                                            const AggregateOptions& options,
                                            std::size_t num_blocks, Rng* rng);

/// The noise scale the aggregation will use: gamma * width / (l * epsilon).
/// Exposed so the budget allocator (§5.2) can compute zeta_i without
/// running the query.
Result<double> AggregationNoiseScale(double range_width, std::size_t num_blocks,
                                     std::size_t gamma, double epsilon);

}  // namespace gupt

#endif  // GUPT_CORE_SAMPLE_AGGREGATE_H_
