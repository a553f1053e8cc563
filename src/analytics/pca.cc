#include "analytics/pca.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace gupt {
namespace analytics {
namespace {

// Row-major k x k covariance of the `dims` columns. Each column is
// centred once; each entry sums (c_i - mean_i) * (c_j - mean_j) over the
// rows in order, so it is bit-identical to a single-accumulator row loop.
// Only the upper triangle is summed: IEEE products commute, so the mirror
// cov[j][i] equals cov[i][j] bit for bit.
Result<std::vector<double>> CovarianceMatrix(
    const Dataset& data, const std::vector<std::size_t>& dims) {
  for (std::size_t d : dims) {
    if (d >= data.num_dims()) {
      return Status::InvalidArgument("feature dim out of range");
    }
  }
  const std::size_t k = dims.size();
  const std::size_t n = data.num_rows();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> centred(k * n);
  std::vector<const double*> cols(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double* ci = data.col(dims[i]);
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) acc += ci[r];
    const double mean = acc * inv_n;
    double* zi = centred.data() + i * n;
    for (std::size_t r = 0; r < n; ++r) zi[r] = ci[r] - mean;
    cols[i] = zi;
  }

  std::vector<double> cov(k * k);
  for (std::size_t i = 0; i < k; ++i) {
    double* row = cov.data() + i * k;
    vec::ColumnDots(cols[i], std::span(cols).subspan(i), n, row + i);
    for (std::size_t j = i; j < k; ++j) {
      row[j] *= inv_n;
      cov[j * k + i] = row[j];
    }
  }
  return cov;
}

void CanonicalizeSign(Row* v) {
  std::size_t arg_max = 0;
  for (std::size_t i = 1; i < v->size(); ++i) {
    if (std::fabs((*v)[i]) > std::fabs((*v)[arg_max])) arg_max = i;
  }
  if ((*v)[arg_max] < 0.0) vec::ScaleInPlace(v, -1.0);
}

}  // namespace

Result<PcaResult> ComputeTopComponent(const Dataset& data,
                                      const PcaOptions& options) {
  std::vector<std::size_t> dims = options.feature_dims;
  if (dims.empty()) {
    dims.resize(data.num_dims());
    for (std::size_t d = 0; d < dims.size(); ++d) dims[d] = d;
  }
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("PCA needs at least two rows");
  }
  GUPT_ASSIGN_OR_RETURN(std::vector<double> cov,
                        CovarianceMatrix(data, dims));

  const std::size_t k = dims.size();
  // Deterministic start: a mildly uneven vector avoids being orthogonal to
  // the top eigenvector for symmetric inputs.
  Row v(k);
  for (std::size_t i = 0; i < k; ++i) {
    v[i] = 1.0 + 0.01 * static_cast<double>(i);
  }
  double norm = vec::Norm(v);
  vec::ScaleInPlace(&v, 1.0 / norm);

  double eigenvalue = 0.0;
  Row next(k);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t i = 0; i < k; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < k; ++j) acc += cov[i * k + j] * v[j];
      next[i] = acc;
    }
    double next_norm = vec::Norm(next);
    if (next_norm < 1e-15) {
      // Zero covariance: all rows identical; any unit vector is valid.
      eigenvalue = 0.0;
      break;
    }
    vec::ScaleInPlace(&next, 1.0 / next_norm);
    // Distance from v to next and to -next (the same direction).
    double same = 0.0;
    double flipped = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double d = next[i] - v[i];
      const double f = -next[i] - v[i];
      same += d * d;
      flipped += f * f;
    }
    const double delta = std::min(same, flipped);
    eigenvalue = next_norm;
    std::swap(v, next);
    if (delta < options.tolerance) break;
  }
  CanonicalizeSign(&v);

  PcaResult result;
  result.component = std::move(v);
  result.eigenvalue = eigenvalue;
  return result;
}

ProgramFactory TopComponentQuery(const PcaOptions& options) {
  return MakeProgramFactory(
      "pca_top[d=" + std::to_string(options.feature_dims.size()) + "]",
      options.feature_dims.size(),
      [options](const Dataset& block) -> Result<Row> {
        if (options.feature_dims.empty()) {
          return Status::InvalidArgument(
              "TopComponentQuery requires explicit feature_dims");
        }
        GUPT_ASSIGN_OR_RETURN(PcaResult result,
                              ComputeTopComponent(block, options));
        return result.component;
      });
}

}  // namespace analytics
}  // namespace gupt
