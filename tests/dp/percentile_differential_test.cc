// Bit-exact differential test of PrivatePercentile and PrivateQuantilePair
// against copies of their std::sort versions. The mechanism now sorts
// through stats::SortAscending, and the pair sorts its clamped values once
// for both releases; every release, error and random draw must stay the
// same. After each call the next raw draw is compared too, so a changed
// number of draws fails even where the outputs happen to agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "data/synthetic.h"
#include "dp/percentile.h"

namespace gupt {
namespace dp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- the std::sort versions, verbatim but for their namespace ------------

namespace reference {

Result<double> PrivatePercentile(const std::vector<double>& values,
                                 const PercentileOptions& options, Rng* rng) {
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
    return options.lo;
  }

  const std::size_t n = values.size();
  std::vector<double> sorted(n + 2);
  sorted[0] = options.lo;
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i + 1] = vec::ClampScalar(values[i], options.lo, options.hi);
  }
  sorted[n + 1] = options.hi;
  std::sort(sorted.begin() + 1, sorted.end() - 1);

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
  opts.percentile = lower_percentile;
  GUPT_ASSIGN_OR_RETURN(double q_lo,
                        reference::PrivatePercentile(values, opts, rng));
  opts.percentile = upper_percentile;
  GUPT_ASSIGN_OR_RETURN(double q_hi,
                        reference::PrivatePercentile(values, opts, rng));
  if (q_lo > q_hi) std::swap(q_lo, q_hi);
  return std::make_pair(q_lo, q_hi);
}

}  // namespace reference

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Input {
  std::string name;
  std::vector<double> values;
  double lo;
  double hi;
};

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  const std::vector<double> ages =
      synthetic::CensusAges({}).value().Column(0).value();
  inputs.push_back({"census ages", ages, 17.0, 90.0});
  inputs.push_back({"census block",
                    std::vector<double>(ages.begin(), ages.begin() + 509), 0.0,
                    100.0});
  Rng rng(41);
  for (std::size_t n : {1u, 2u, 31u, 32u, 33u, 509u}) {
    std::vector<double> gaussian(n), ties(n), zeros(n), wild(n);
    for (std::size_t i = 0; i < n; ++i) {
      gaussian[i] = rng.Gaussian(0.0, 3.0);
      ties[i] = static_cast<double>(rng.UniformUint64(4));
      zeros[i] = rng.Bernoulli(0.5) ? -0.0 : rng.UniformDouble(-1.0, 1.0);
      const double u = rng.UniformDouble();
      wild[i] = u < 0.1 ? kInf : u < 0.2 ? -kInf : rng.Gaussian(0.0, 10.0);
    }
    const std::string at = " n=" + std::to_string(n);
    inputs.push_back({"gaussian" + at, gaussian, -5.0, 5.0});
    inputs.push_back({"ties" + at, ties, 0.0, 3.0});
    // -0.0 beside +0.0 once lo = 0 clamps the negatives up to it.
    inputs.push_back({"+-0.0" + at, zeros, 0.0, 1.0});
    inputs.push_back({"-0.0" + at, zeros, -1.0, 1.0});
    inputs.push_back({"infinities" + at, wild, -20.0, 20.0});
    inputs.push_back({"point mass" + at, std::vector<double>(n, 2.0), 2.0,
                      2.0});
    inputs.push_back({"all clamped" + at, std::vector<double>(n, 9.0), 0.0,
                      1.0});
  }
  return inputs;
}

TEST(PercentileDifferentialTest, ReleasesAndDrawsMatchTheStdSortVersion) {
  std::uint64_t seed = 100;
  std::size_t compared = 0;
  for (const Input& input : Inputs()) {
    for (double p : {0.0, 0.1, 0.25, 0.5, 0.9, 1.0}) {
      for (double epsilon : {0.1, 1.0, 50.0}) {
        SCOPED_TRACE(input.name + " p=" + std::to_string(p) +
                     " eps=" + std::to_string(epsilon));
        PercentileOptions options;
        options.percentile = p;
        options.lo = input.lo;
        options.hi = input.hi;
        options.epsilon = epsilon;
        Rng got_rng(seed);
        Rng want_rng(seed++);
        Result<double> got = PrivatePercentile(input.values, options, &got_rng);
        Result<double> want =
            reference::PrivatePercentile(input.values, options, &want_rng);
        ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
        if (want.ok()) {
          EXPECT_EQ(Bits(got.value()), Bits(want.value()))
              << got.value() << " vs " << want.value();
        } else {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
        }
        EXPECT_EQ(got_rng.NextUint64(), want_rng.NextUint64());
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 700u);
}

TEST(PercentileDifferentialTest, PairsMatchTheStdSortVersion) {
  std::uint64_t seed = 900;
  const std::pair<double, double> pairs[] = {
      {0.25, 0.75}, {0.05, 0.95}, {0.5, 0.6}, {0.9, 0.1}, {0.0, 0.5},
      {0.5, 1.0}};
  for (const Input& input : Inputs()) {
    for (auto [lower, upper] : pairs) {
      SCOPED_TRACE(input.name + " pair " + std::to_string(lower) + "," +
                   std::to_string(upper));
      Rng got_rng(seed);
      Rng want_rng(seed++);
      auto got = PrivateQuantilePair(input.values, input.lo, input.hi, lower,
                                     upper, 0.5, &got_rng);
      auto want = reference::PrivateQuantilePair(
          input.values, input.lo, input.hi, lower, upper, 0.5, &want_rng);
      ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
      if (want.ok()) {
        EXPECT_EQ(Bits(got.value().first), Bits(want.value().first));
        EXPECT_EQ(Bits(got.value().second), Bits(want.value().second));
      } else {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
      }
      EXPECT_EQ(got_rng.NextUint64(), want_rng.NextUint64());
    }
  }
}

}  // namespace
}  // namespace dp
}  // namespace gupt
