// Small dense vector/matrix helpers used throughout the runtime.
//
// GUPT's data model is "a collection of real-valued vectors" (paper §3.1),
// so a Row is simply std::vector<double>. These free functions cover the
// linear algebra the analytics programs need without pulling in a BLAS.

#ifndef GUPT_COMMON_VEC_H_
#define GUPT_COMMON_VEC_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"

namespace gupt {

using Row = std::vector<double>;

namespace vec {

/// Dot product. Vectors must have equal size.
double Dot(const Row& a, const Row& b);

/// Squared Euclidean distance between `a` and `b` (equal sizes).
double SquaredDistance(const Row& a, const Row& b);

/// Euclidean norm of `a`.
double Norm(const Row& a);

/// a + b, element-wise.
Row Add(const Row& a, const Row& b);

/// a - b, element-wise.
Row Sub(const Row& a, const Row& b);

/// s * a.
Row Scale(const Row& a, double s);

/// In-place a += b.
void AddInPlace(Row* a, const Row& b);

/// In-place a *= s.
void ScaleInPlace(Row* a, double s);

/// Element-wise clamp of `v` into [lo[i], hi[i]]. All sizes must match.
Row Clamp(const Row& v, const Row& lo, const Row& hi);

/// Clamp a scalar into [lo, hi].
double ClampScalar(double x, double lo, double hi);

/// Dot products of the length-n column `a` with each column in `b`:
/// out[t] = sum over r of a[r] * b[t][r], each summed from 0.0 in row
/// order r = 0..n-1, exactly as a single-accumulator loop would. Four sums
/// share each pass over the rows so their add chains overlap.
void ColumnDots(const double* a, std::span<const double* const> b,
                std::size_t n, double* out);

}  // namespace vec

namespace stats {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Population variance (divide by n); 0 for fewer than one element.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// Sorts `xs` ascending in place, leaving exactly the bit sequence that
/// std::sort(xs.begin(), xs.end()) would. Every sort of doubles in the
/// analytics programs and the DP percentile goes through here, so their
/// outputs stay bit-identical while the sort itself is a radix sort.
void SortAscending(std::span<double> xs);

/// Exact q-quantile (q in [0,1]) by linear interpolation on an input that
/// is already sorted ascending. Errors on empty input or q outside [0,1].
Result<double> SortedQuantile(std::span<const double> sorted, double q);

/// SortedQuantile of a sorted copy of `xs`.
Result<double> Quantile(std::vector<double> xs, double q);

/// Root-mean-square error between paired sequences (equal sizes).
double Rmse(const std::vector<double>& estimates,
            const std::vector<double>& truths);

/// Per-dimension mean of equally-sized rows; errors on empty input.
Result<Row> MeanRows(const std::vector<Row>& rows);

}  // namespace stats

}  // namespace gupt

#endif  // GUPT_COMMON_VEC_H_
