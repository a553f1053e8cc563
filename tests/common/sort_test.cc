// Exactness of stats::SortAscending: on every input it must leave the bit
// sequence std::sort leaves. Outputs are compared by bit pattern, so a
// -0.0 where std::sort leaves +0.0, or NaNs in another order, fail here.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"

namespace gupt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Generator = std::function<double(Rng*)>;

// Sorts one copy of `xs` with std::sort and one with SortAscending and
// reports the first position where their bits differ.
void ExpectSortsLikeStdSort(const std::vector<double>& xs,
                            const std::string& what) {
  std::vector<double> want = xs;
  std::sort(want.begin(), want.end());
  std::vector<double> got = xs;
  stats::SortAscending(got);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ADD_FAILURE() << what << ", n=" << xs.size() << ": first difference at "
                    << i << ": " << got[i] << " vs std::sort's " << want[i];
      return;
    }
  }
}

double RandomBits(Rng* rng) { return std::bit_cast<double>(rng->NextUint64()); }

double FiniteBits(Rng* rng) {
  double x = RandomBits(rng);
  while (!std::isfinite(x)) x = RandomBits(rng);
  return x;
}

double Subnormal(Rng* rng) {
  const std::uint64_t bits = rng->NextUint64();
  return std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL);
}

// Draws one of `values`, or, with probability `gaussian_share`, a Gaussian.
Generator OneOf(std::vector<double> values, double gaussian_share = 0.0) {
  return [values, gaussian_share](Rng* rng) {
    if (rng->UniformDouble() < gaussian_share) return rng->Gaussian(0.0, 50.0);
    return values[rng->UniformUint64(values.size())];
  };
}

double QuietNan(std::uint64_t payload, bool negative) {
  const std::uint64_t sign = negative ? 0x8000000000000000ULL : 0;
  return std::bit_cast<double>(sign | 0x7FF8000000000000ULL | payload);
}

double SignallingNan(std::uint64_t payload, bool negative) {
  const std::uint64_t sign = negative ? 0x8000000000000000ULL : 0;
  return std::bit_cast<double>(sign | 0x7FF0000000000000ULL | payload);
}

struct Case {
  std::string name;
  Generator draw;
};

std::vector<Case> Cases() {
  return {
      {"random bits", RandomBits},
      {"finite random bits", FiniteBits},
      {"gaussian", [](Rng* rng) { return rng->Gaussian(0.0, 1e3); }},
      {"+-0 mixed", OneOf({-0.0, 0.0, 1.5, -2.5}, 0.3)},
      {"only -0.0", OneOf({-0.0, 3.0, -7.25}, 0.3)},
      {"only +0.0", OneOf({0.0, 3.0, -7.25}, 0.3)},
      {"all -0.0", OneOf({-0.0})},
      {"+-inf", OneOf({kInf, -kInf, 0.5}, 0.5)},
      {"subnormals", Subnormal},
      {"subnormals and zeros", OneOf({-0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN,
                                      DBL_MIN, -DBL_MIN}, 0.1)},
      {"+-DBL_MAX", OneOf({DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN}, 0.5)},
      {"NaNs", OneOf({QuietNan(0, false), QuietNan(0, true),
                      QuietNan(0x1234, false), QuietNan(0x5, true),
                      SignallingNan(1, false), SignallingNan(0x777, true),
                      kInf, -kInf, 1.0, -1.0},
                     0.5)},
      {"heavy ties", OneOf({1.5, -2.0, 7.0})},
      {"census ages",
       [](Rng* rng) { return 17.0 + static_cast<double>(rng->UniformUint64(74)); }},
  };
}

TEST(SortAscendingTest, MatchesStdSortBitForBit) {
  const std::size_t sizes[] = {0, 1, 2, 31, 32, 33, 509, 26733};
  std::uint64_t seed = 1;
  for (const Case& c : Cases()) {
    for (std::size_t n : sizes) {
      for (int trial = 0; trial < 3; ++trial) {
        Rng rng(seed++);
        std::vector<double> xs(n);
        for (double& x : xs) x = c.draw(&rng);
        ExpectSortsLikeStdSort(xs, c.name);
      }
    }
  }
}

TEST(SortAscendingTest, SortedReversedAndConstantInputs) {
  std::vector<double> xs(509);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i) - 254.5;
  }
  ExpectSortsLikeStdSort(xs, "ascending");
  std::reverse(xs.begin(), xs.end());
  ExpectSortsLikeStdSort(xs, "descending");
  ExpectSortsLikeStdSort(std::vector<double>(509, 42.0), "constant");
  ExpectSortsLikeStdSort(std::vector<double>(509, -kInf), "constant -inf");
}

TEST(SortAscendingTest, SortsASubspanInPlaceAndLeavesTheRest) {
  Rng rng(99);
  std::vector<double> xs(100);
  for (double& x : xs) x = rng.Gaussian(0.0, 10.0);
  std::vector<double> want = xs;
  std::sort(want.begin() + 10, want.end() - 10);
  stats::SortAscending(std::span<double>(xs).subspan(10, 80));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(xs[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "at " << i;
  }
}

}  // namespace
}  // namespace gupt
