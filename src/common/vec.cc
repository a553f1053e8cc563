#include "common/vec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>

namespace gupt {
namespace {

// Below this size std::sort is as fast and needs no scratch buffer.
constexpr std::size_t kRadixMinSize = 32;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// A key whose unsigned order is the double's order: a negative double has
// all its bits flipped, a positive one gains the sign bit.
std::uint64_t OrderedKey(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | kSignBit);
}

double FromOrderedKey(std::uint64_t key) {
  return std::bit_cast<double>(key ^ (((key >> 63) - 1) | kSignBit));
}

}  // namespace

namespace vec {

double Dot(const Row& a, const Row& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredDistance(const Row& a, const Row& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double Norm(const Row& a) { return std::sqrt(Dot(a, a)); }

Row Add(const Row& a, const Row& b) {
  assert(a.size() == b.size());
  Row out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Row Sub(const Row& a, const Row& b) {
  assert(a.size() == b.size());
  Row out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Row Scale(const Row& a, double s) {
  Row out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void AddInPlace(Row* a, const Row& b) {
  assert(a->size() == b.size());
  for (std::size_t i = 0; i < b.size(); ++i) (*a)[i] += b[i];
}

void ScaleInPlace(Row* a, double s) {
  for (double& x : *a) x *= s;
}

Row Clamp(const Row& v, const Row& lo, const Row& hi) {
  assert(v.size() == lo.size() && v.size() == hi.size());
  Row out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = ClampScalar(v[i], lo[i], hi[i]);
  }
  return out;
}

double ClampScalar(double x, double lo, double hi) {
  assert(lo <= hi);
  return std::min(std::max(x, lo), hi);
}

void ColumnDots(const double* a, std::span<const double* const> b,
                std::size_t n, double* out) {
  for (std::size_t t = 0; t < b.size(); t += 4) {
    // A short last group repeats its final column; those sums are dropped.
    const std::size_t last = std::min<std::size_t>(3, b.size() - t - 1);
    const double* b0 = b[t];
    const double* b1 = b[t + std::min<std::size_t>(1, last)];
    const double* b2 = b[t + std::min<std::size_t>(2, last)];
    const double* b3 = b[t + last];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double x = a[r];
      s0 += x * b0[r];
      s1 += x * b1[r];
      s2 += x * b2[r];
      s3 += x * b3[r];
    }
    const double sums[4] = {s0, s1, s2, s3};
    std::copy_n(sums, last + 1, out + t);
  }
}

}  // namespace vec

namespace stats {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mu = Mean(xs);
  double sum = 0.0;
  for (double x : xs) {
    double d = x - mu;
    sum += d * d;
  }
  return sum / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

void SortAscending(std::span<double> xs) {
  const std::size_t n = xs.size();
  if (n < kRadixMinSize) {
    std::sort(xs.begin(), xs.end());
    return;
  }
  // LSD radix sort of the ordered keys, one pass per byte that some keys
  // differ in. Keys of equal doubles are equal unless the doubles differ in
  // bits, which only NaNs and a -0.0 beside a +0.0 do; std::sort may leave
  // those in any order among themselves, so such inputs go to std::sort.
  auto buffer = std::make_unique_for_overwrite<std::uint64_t[]>(2 * n);
  std::uint64_t* from = buffer.get();
  std::uint64_t* to = from + n;
  std::uint64_t any_set = 0;
  std::uint64_t all_set = ~std::uint64_t{0};
  bool has_nan = false;
  bool has_negative_zero = false;
  bool has_positive_zero = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const std::uint64_t key = OrderedKey(x);
    from[i] = key;
    any_set |= key;
    all_set &= key;
    has_nan |= x != x;
    has_negative_zero |= key == ~kSignBit;
    has_positive_zero |= key == kSignBit;
  }
  if (has_nan || (has_negative_zero && has_positive_zero)) {
    std::sort(xs.begin(), xs.end());
    return;
  }
  const std::uint64_t varying = any_set ^ all_set;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::size_t start[257] = {};
    for (std::size_t i = 0; i < n; ++i) {
      ++start[((from[i] >> shift) & 0xFF) + 1];
    }
    for (std::size_t b = 1; b < 257; ++b) start[b] += start[b - 1];
    for (std::size_t i = 0; i < n; ++i) {
      to[start[(from[i] >> shift) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  for (std::size_t i = 0; i < n; ++i) xs[i] = FromOrderedKey(from[i]);
}

Result<double> SortedQuantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    return Status::InvalidArgument("quantile of an empty sequence");
  }
  if (!(q >= 0.0 && q <= 1.0)) {  // a NaN q fails too: it has no index
    return Status::InvalidArgument("quantile q must be in [0, 1]");
  }
  double pos = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  // A neighbour with zero weight adds nothing, but an infinite one would
  // add inf * 0 = NaN.
  if (frac == 0.0 && std::isinf(sorted[hi])) return sorted[lo];
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Result<double> Quantile(std::vector<double> xs, double q) {
  SortAscending(xs);
  return SortedQuantile(xs, q);
}

double Rmse(const std::vector<double>& estimates,
            const std::vector<double>& truths) {
  assert(estimates.size() == truths.size());
  if (estimates.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    double d = estimates[i] - truths[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(estimates.size()));
}

Result<Row> MeanRows(const std::vector<Row>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("mean of an empty row set");
  }
  Row acc(rows[0].size(), 0.0);
  for (const Row& r : rows) {
    if (r.size() != acc.size()) {
      return Status::InvalidArgument("rows have inconsistent dimensions");
    }
    vec::AddInPlace(&acc, r);
  }
  vec::ScaleInPlace(&acc, 1.0 / static_cast<double>(rows.size()));
  return acc;
}

}  // namespace stats
}  // namespace gupt
