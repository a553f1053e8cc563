#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace gupt {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DifferentStreamsDiverge) {
  Rng a(7, 0), b(7, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoublePositiveNeverZero) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.UniformDoublePositive(), 0.0);
  }
}

TEST(RngTest, UniformDoubleRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformUint64(13), 13u);
  }
}

TEST(RngTest, UniformUint64CoversAllResidues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformUint64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, LaplaceIsCenteredWithCorrectSpread) {
  Rng rng(31);
  const double scale = 2.5;
  const int n = 200000;
  double sum = 0.0, abs_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Laplace(scale);
    sum += x;
    abs_sum += std::fabs(x);
  }
  // Laplace(b): mean 0, E|X| = b.
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(abs_sum / n, scale, 0.05);
}

TEST(RngTest, LaplaceVarianceIsTwoBSquared) {
  Rng rng(37);
  const double scale = 1.5;
  const int n = 200000;
  double sq_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Laplace(scale);
    sq_sum += x * x;
  }
  EXPECT_NEAR(sq_sum / n, 2.0 * scale * scale, 0.15);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(41);
  const int n = 200000;
  double sum = 0.0, sq_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Gaussian();
    sum += x;
    sq_sum += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq_sum / n, 1.0, 0.02);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(43);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 3.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(47);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(53);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(59);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalSingleElement) {
  Rng rng(61);
  EXPECT_EQ(rng.Categorical({5.0}), 0u);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(67);
  for (std::size_t n : {1u, 2u, 17u, 100u}) {
    std::vector<std::size_t> perm = rng.Permutation(n);
    ASSERT_EQ(perm.size(), n);
    std::set<std::size_t> unique(perm.begin(), perm.end());
    EXPECT_EQ(unique.size(), n);
    EXPECT_EQ(*unique.begin(), 0u);
    EXPECT_EQ(*unique.rbegin(), n - 1);
  }
}

TEST(RngTest, PermutationOfZeroIsEmpty) {
  Rng rng(67);
  EXPECT_TRUE(rng.Permutation(0).empty());
}

// UniformUint64 as it was before it skipped the threshold division for
// draws at or above the bound: both divisions on every draw. Counts the
// draws it rejects.
std::uint64_t TwoDivisionUniform(Rng* rng, std::uint64_t bound,
                                 std::size_t* rejected) {
  const std::uint64_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint64_t r = rng->NextUint64();
    if (r >= threshold) return r % bound;
    ++*rejected;
  }
}

TEST(RngTest, UniformUint64MatchesTheTwoDivisionForm) {
  const std::uint64_t two32 = std::uint64_t{1} << 32;
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  const std::uint64_t bounds[] = {1,         2,         3,
                                  7,         two32 - 1, two32 + 1,
                                  two63 - 1, two63,     two63 + 1,
                                  3 * (two63 / 2),      ~std::uint64_t{0}};
  for (std::uint64_t bound : bounds) {
    SCOPED_TRACE("bound " + std::to_string(bound));
    Rng got(bound ^ 0x5eedULL);
    Rng want(bound ^ 0x5eedULL);
    std::size_t rejected = 0;
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(got.UniformUint64(bound),
                TwoDivisionUniform(&want, bound, &rejected))
          << "draw " << i;
    }
    // The same number of raw draws was consumed.
    EXPECT_EQ(got.NextUint64(), want.NextUint64());
    // Just above 2^63 the biased tail is up to half of all draws, so the
    // rejection path runs thousands of times.
    const double tail = static_cast<double>((-bound) % bound) * 0x1.0p-64;
    if (tail > 0.2) {
      EXPECT_GT(rejected, 2000u);
    }
  }
}

TEST(RngTest, PermutationIntoMatchesTheTwoDivisionForm) {
  for (std::size_t n : {0u, 1u, 2u, 26733u, 32561u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    Rng got(n + 11);
    Rng want(n + 11);
    std::vector<std::size_t> perm(n);
    got.PermutationInto(n, perm.data());
    std::vector<std::size_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = i;
    std::size_t rejected = 0;
    for (std::size_t i = n; i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(TwoDivisionUniform(&want, i, &rejected));
      std::swap(expected[i - 1], expected[j]);
    }
    EXPECT_EQ(perm, expected);
    EXPECT_EQ(got.NextUint64(), want.NextUint64());
  }
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(71);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(101);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForksAreMutuallyIndependent) {
  Rng parent(103);
  Rng a = parent.Fork();
  Rng b = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// Property sweep: Laplace E|X| tracks the scale parameter across magnitudes.
class LaplaceScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceScaleSweep, MeanAbsoluteDeviationMatchesScale) {
  const double scale = GetParam();
  Rng rng(997);
  const int n = 100000;
  double abs_sum = 0.0;
  for (int i = 0; i < n; ++i) abs_sum += std::fabs(rng.Laplace(scale));
  EXPECT_NEAR(abs_sum / n / scale, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceScaleSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 1000.0));

}  // namespace
}  // namespace gupt
