#include "dp/percentile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/vec.h"

namespace gupt {
namespace dp {

namespace {

// PrivatePercentile, reading the order statistics from `*cache`: lo, the
// values clamped into [lo, hi] in ascending order, then hi. Fills an empty
// cache, so releases over the same values and range share one sort.
Result<double> PercentileOfSorted(const std::vector<double>& values,
                                  const PercentileOptions& options,
                                  std::vector<double>* cache, Rng* rng) {
  if (values.empty()) {
    return Status::InvalidArgument("private percentile of an empty sequence");
  }
  if (!(options.percentile > 0.0 && options.percentile < 1.0)) {
    return Status::InvalidArgument("percentile must be in (0, 1)");
  }
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (!(options.lo <= options.hi) || !std::isfinite(options.lo) ||
      !std::isfinite(options.hi)) {
    return Status::InvalidArgument("clamp range [lo, hi] is invalid");
  }
  if (options.lo == options.hi) {
    // Degenerate public range: every clamped value equals lo, and so does
    // every percentile. Nothing private is revealed.
    return options.lo;
  }

  const std::size_t n = values.size();
  std::vector<double>& sorted = *cache;
  if (sorted.empty()) {
    sorted.resize(n + 2);
    sorted[0] = options.lo;
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i + 1] = vec::ClampScalar(values[i], options.lo, options.hi);
    }
    sorted[n + 1] = options.hi;
    stats::SortAscending(std::span<double>(sorted).subspan(1, n));
  }

  // Interval i spans [sorted[i], sorted[i+1]] for i in [0, n]. Utility is
  // the negated rank distance to the target rank; log-weight adds the
  // interval width so the mechanism is the continuous exponential mechanism
  // over [lo, hi].
  const double target_rank = options.percentile * static_cast<double>(n);
  std::vector<double> log_weights(n + 1);
  double max_log_weight = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i <= n; ++i) {
    double width = sorted[i + 1] - sorted[i];
    double utility = -std::fabs(static_cast<double>(i) - target_rank);
    double lw = (width > 0.0)
                    ? std::log(width) + 0.5 * options.epsilon * utility
                    : -std::numeric_limits<double>::infinity();
    log_weights[i] = lw;
    max_log_weight = std::max(max_log_weight, lw);
  }
  if (!std::isfinite(max_log_weight)) {
    // All intervals have zero width: the clamped data is a point mass that
    // fills the entire range only when lo == hi, handled above; otherwise
    // every value collapsed to one point. Release that point — it is lo or
    // hi or between, but the weights carry no information. Fall back to the
    // interval endpoints' midpoint closest to the target rank.
    return sorted[static_cast<std::size_t>(
        vec::ClampScalar(std::round(target_rank), 0.0,
                         static_cast<double>(n)))];
  }

  std::vector<double> weights(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    weights[i] = std::exp(log_weights[i] - max_log_weight);
  }
  std::size_t chosen = rng->Categorical(weights);
  return rng->UniformDouble(sorted[chosen], sorted[chosen + 1]);
}

}  // namespace

Result<double> PrivatePercentile(const std::vector<double>& values,
                                 const PercentileOptions& options, Rng* rng) {
  std::vector<double> sorted;
  return PercentileOfSorted(values, options, &sorted, rng);
}

Result<std::pair<double, double>> PrivateQuantilePair(
    const std::vector<double>& values, double lo, double hi,
    double lower_percentile, double upper_percentile, double epsilon_each,
    Rng* rng) {
  if (!(lower_percentile < upper_percentile)) {
    return Status::InvalidArgument(
        "lower percentile must be below the upper one");
  }
  PercentileOptions opts;
  opts.lo = lo;
  opts.hi = hi;
  opts.epsilon = epsilon_each;
  std::vector<double> sorted;  // sorted once, read by both releases
  opts.percentile = lower_percentile;
  GUPT_ASSIGN_OR_RETURN(double q_lo,
                        PercentileOfSorted(values, opts, &sorted, rng));
  opts.percentile = upper_percentile;
  GUPT_ASSIGN_OR_RETURN(double q_hi,
                        PercentileOfSorted(values, opts, &sorted, rng));
  if (q_lo > q_hi) std::swap(q_lo, q_hi);  // noise can invert the order
  return std::make_pair(q_lo, q_hi);
}

Result<std::pair<double, double>> PrivateInterquartileRange(
    const std::vector<double>& values, double lo, double hi,
    double epsilon_each, Rng* rng) {
  return PrivateQuantilePair(values, lo, hi, 0.25, 0.75, epsilon_each, rng);
}

}  // namespace dp
}  // namespace gupt
