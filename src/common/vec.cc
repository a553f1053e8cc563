#include "common/vec.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gupt {
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

Result<double> Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return Status::InvalidArgument("quantile of an empty sequence");
  }
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("quantile q must be in [0, 1]");
  }
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
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
