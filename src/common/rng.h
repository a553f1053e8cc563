// Deterministic random number generation for GUPT.
//
// All randomness in the runtime (noise sampling, block partitioning,
// synthetic data generation) flows through Rng so that experiments are
// reproducible from a seed. The engine is PCG64 (O'Neill, 2014) implemented
// locally; distributions are implemented here rather than with
// <random> adaptors so that streams are identical across standard-library
// implementations.

#ifndef GUPT_COMMON_RNG_H_
#define GUPT_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace gupt {

/// PCG-XSL-RR 128/64 pseudo-random engine with distribution helpers.
///
/// Not cryptographically secure; DP guarantees in this codebase are stated
/// against an adversary who cannot predict the noise stream, as is standard
/// for research DP runtimes.
class Rng {
 public:
  /// Seeds the engine. Two Rng instances with equal (seed, stream) produce
  /// identical streams; different `stream` values give independent streams
  /// for the same seed.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Next raw 64-bit output.
  std::uint64_t NextUint64();

  /// Uniform integer in [0, bound), bound > 0: r % bound of the first draw
  /// r >= 2^64 mod bound (arc4random_uniform's rejection rule), which
  /// removes the modulo bias.
  std::uint64_t UniformUint64(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Uniform double in (0, 1] — never returns exactly zero. Used where a
  /// logarithm of the sample is taken.
  double UniformDoublePositive();

  /// Laplace(0, scale) sample via inverse CDF. scale > 0.
  double Laplace(double scale);

  /// Standard normal sample via Box-Muller (caches the second variate).
  double Gaussian();

  /// Normal(mean, stddev) sample.
  double Gaussian(double mean, double stddev);

  /// Exponential(rate) sample, rate > 0.
  double Exponential(double rate);

  /// Bernoulli(p) sample.
  bool Bernoulli(double p);

  /// Index in [0, weights.size()) drawn proportionally to `weights`.
  /// Weights must be non-negative with a positive sum.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (std::size_t i = values->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(UniformUint64(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// A random permutation of {0, ..., n-1}.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Writes a random permutation of {0, ..., n-1} into out[0..n), which
  /// must hold n elements. Consumes exactly the same draws as
  /// Permutation(n) — callers with arena-backed scratch get the identical
  /// stream without the vector allocation.
  void PermutationInto(std::size_t n, std::size_t* out);

  /// Derives an independent child generator; successive calls yield
  /// distinct streams. Used to hand isolated randomness to worker threads.
  Rng Fork();

 private:
  unsigned __int128 state_;
  unsigned __int128 inc_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
  std::uint64_t fork_counter_ = 0;
};

}  // namespace gupt

#endif  // GUPT_COMMON_RNG_H_
