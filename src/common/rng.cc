#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace gupt {
namespace {

constexpr unsigned __int128 Mult128() {
  // PCG 128-bit LCG multiplier: 2549297995355413924ULL << 64 |
  // 4865540595714422341ULL.
  return (static_cast<unsigned __int128>(2549297995355413924ULL) << 64) |
         4865540595714422341ULL;
}

std::uint64_t RotR64(std::uint64_t v, unsigned rot) {
  return (v >> rot) | (v << ((-rot) & 63u));
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  // pcg_setseq initialization: inc = (stream << 1) | 1, two steps around
  // seeding to decorrelate nearby seeds.
  inc_ = (static_cast<unsigned __int128>(stream) << 1) | 1;
  state_ = 0;
  NextUint64();
  state_ += (static_cast<unsigned __int128>(seed) << 64) | seed;
  NextUint64();
}

std::uint64_t Rng::NextUint64() {
  state_ = state_ * Mult128() + inc_;
  // XSL-RR output function.
  std::uint64_t xored =
      static_cast<std::uint64_t>(state_ >> 64) ^ static_cast<std::uint64_t>(state_);
  unsigned rot = static_cast<unsigned>(state_ >> 122);
  return RotR64(xored, rot);
}

std::uint64_t Rng::UniformUint64(std::uint64_t bound) {
  assert(bound > 0);
  // arc4random_uniform's rule: reject draws below 2^64 mod bound, so the
  // accepted ones cover each residue equally often. That threshold is
  // below bound, so a draw at or above bound is accepted without it.
  std::uint64_t r = NextUint64();
  if (r < bound) {
    const std::uint64_t threshold = (-bound) % bound;
    while (r < threshold) r = NextUint64();
  }
  return r % bound;
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::UniformDoublePositive() {
  return static_cast<double>((NextUint64() >> 11) + 1) * 0x1.0p-53;
}

double Rng::Laplace(double scale) {
  assert(scale > 0);
  // Inverse CDF: u uniform in (-1/2, 1/2]; X = -scale * sgn(u) * ln(1-2|u|).
  double u = UniformDoublePositive() - 0.5;
  double sign = (u >= 0) ? 1.0 : -1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = UniformDoublePositive();
  double u2 = UniformDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double rate) {
  assert(rate > 0);
  return -std::log(UniformDoublePositive()) / rate;
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = UniformDouble() * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  // Floating-point round-off can leave target == total; return the last
  // positive-weight index.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  PermutationInto(n, perm.data());
  return perm;
}

void Rng::PermutationInto(std::size_t n, std::size_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  if (n == 0) return;
  // Identical Fisher-Yates loop (and therefore draw sequence) to Shuffle.
  for (std::size_t i = n - 1; i > 0; --i) {
    std::size_t j = static_cast<std::size_t>(UniformUint64(i + 1));
    std::swap(out[i], out[j]);
  }
}

Rng Rng::Fork() {
  return Rng(NextUint64(), ++fork_counter_ + NextUint64());
}

}  // namespace gupt
