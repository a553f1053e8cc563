#include "kernel_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace gupt {
namespace analytics {
namespace reference {
namespace {

std::vector<std::size_t> ResolveFeatureDims(const Dataset& data,
                                            const KMeansOptions& options) {
  if (!options.feature_dims.empty()) return options.feature_dims;
  std::vector<std::size_t> dims(data.num_dims());
  for (std::size_t d = 0; d < dims.size(); ++d) dims[d] = d;
  return dims;
}

Result<std::vector<Row>> ExtractFeatures(
    const Dataset& data, const std::vector<std::size_t>& dims) {
  for (std::size_t d : dims) {
    if (d >= data.num_dims()) {
      return Status::InvalidArgument("feature dim out of range");
    }
  }
  std::vector<const double*> cols(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) cols[i] = data.col(dims[i]);
  std::vector<Row> points(data.num_rows(), Row(dims.size()));
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    for (std::size_t i = 0; i < dims.size(); ++i) points[r][i] = cols[i][r];
  }
  return points;
}

std::size_t NearestCenter(const Row& point, const std::vector<Row>& centers) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers.size(); ++c) {
    double d = vec::SquaredDistance(point, centers[c]);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

std::vector<Row> SeedCenters(const std::vector<Row>& points, std::size_t k,
                             Rng* rng) {
  std::vector<Row> centers;
  centers.reserve(k);
  centers.push_back(points[rng->UniformUint64(points.size())]);
  std::vector<double> dist_sq(points.size());
  while (centers.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      dist_sq[i] = vec::SquaredDistance(points[i],
                                        centers[NearestCenter(points[i],
                                                              centers)]);
      total += dist_sq[i];
    }
    if (total == 0.0) {
      centers.push_back(centers.back());
      continue;
    }
    centers.push_back(points[rng->Categorical(dist_sq)]);
  }
  return centers;
}

Result<std::vector<Row>> CovarianceMatrix(
    const Dataset& data, const std::vector<std::size_t>& dims) {
  for (std::size_t d : dims) {
    if (d >= data.num_dims()) {
      return Status::InvalidArgument("feature dim out of range");
    }
  }
  const std::size_t k = dims.size();
  const std::size_t n = data.num_rows();
  Row mean(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const double* ci = data.col(dims[i]);
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) acc += ci[r];
    mean[i] = acc;
  }
  vec::ScaleInPlace(&mean, 1.0 / static_cast<double>(n));

  std::vector<Row> cov(k, Row(k, 0.0));
  for (std::size_t i = 0; i < k; ++i) {
    const double* ci = data.col(dims[i]);
    for (std::size_t j = 0; j < k; ++j) {
      const double* cj = data.col(dims[j]);
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        acc += (ci[r] - mean[i]) * (cj[r] - mean[j]);
      }
      cov[i][j] = acc;
    }
  }
  for (Row& row : cov) {
    vec::ScaleInPlace(&row, 1.0 / static_cast<double>(n));
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

Result<KMeansResult> RunKMeans(const Dataset& data,
                               const KMeansOptions& options) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  std::vector<std::size_t> dims = ResolveFeatureDims(data, options);
  if (dims.empty()) {
    return Status::InvalidArgument("no feature dimensions");
  }
  GUPT_ASSIGN_OR_RETURN(std::vector<Row> points, ExtractFeatures(data, dims));
  if (points.size() < options.k) {
    return Status::InvalidArgument(
        "block has fewer rows than k; cannot cluster");
  }

  Rng rng(options.seed);
  std::vector<Row> centers = SeedCenters(points, options.k, &rng);

  KMeansResult result;
  std::vector<std::size_t> assignment(points.size(), 0);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations_run;
    for (std::size_t i = 0; i < points.size(); ++i) {
      assignment[i] = NearestCenter(points[i], centers);
    }
    std::vector<Row> sums(options.k, Row(dims.size(), 0.0));
    std::vector<std::size_t> counts(options.k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      vec::AddInPlace(&sums[assignment[i]], points[i]);
      ++counts[assignment[i]];
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < options.k; ++c) {
      if (counts[c] == 0) continue;
      Row next = vec::Scale(sums[c], 1.0 / static_cast<double>(counts[c]));
      movement += std::sqrt(vec::SquaredDistance(next, centers[c]));
      centers[c] = std::move(next);
    }
    if (options.tolerance > 0.0 && movement < options.tolerance) break;
  }

  std::sort(centers.begin(), centers.end(),
            [](const Row& a, const Row& b) { return a[0] < b[0]; });
  result.centers = std::move(centers);
  return result;
}

Result<double> IntraClusterVariance(
    const Dataset& data, const std::vector<Row>& centers,
    const std::vector<std::size_t>& feature_dims) {
  if (centers.empty()) {
    return Status::InvalidArgument("no centers");
  }
  std::vector<std::size_t> dims = feature_dims;
  if (dims.empty()) {
    dims.resize(data.num_dims());
    for (std::size_t d = 0; d < dims.size(); ++d) dims[d] = d;
  }
  GUPT_ASSIGN_OR_RETURN(std::vector<Row> points, ExtractFeatures(data, dims));
  for (const Row& c : centers) {
    if (c.size() != dims.size()) {
      return Status::InvalidArgument("center dimension mismatch");
    }
  }
  double total = 0.0;
  for (const Row& p : points) {
    total += vec::SquaredDistance(p, centers[NearestCenter(p, centers)]);
  }
  return total / static_cast<double>(points.size());
}

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
  GUPT_ASSIGN_OR_RETURN(std::vector<Row> cov, CovarianceMatrix(data, dims));

  const std::size_t k = dims.size();
  Row v(k);
  for (std::size_t i = 0; i < k; ++i) {
    v[i] = 1.0 + 0.01 * static_cast<double>(i);
  }
  double norm = vec::Norm(v);
  vec::ScaleInPlace(&v, 1.0 / norm);

  double eigenvalue = 0.0;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    Row next(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) next[i] += cov[i][j] * v[j];
    }
    double next_norm = vec::Norm(next);
    if (next_norm < 1e-15) {
      eigenvalue = 0.0;
      break;
    }
    vec::ScaleInPlace(&next, 1.0 / next_norm);
    double delta = std::min(vec::SquaredDistance(next, v),
                            vec::SquaredDistance(vec::Scale(next, -1.0), v));
    eigenvalue = next_norm;
    v = std::move(next);
    if (delta < options.tolerance) break;
  }
  CanonicalizeSign(&v);

  PcaResult result;
  result.component = std::move(v);
  result.eigenvalue = eigenvalue;
  return result;
}

Result<LinearModel> FitLinearRegression(
    const Dataset& data, const LinearRegressionOptions& options) {
  if (options.feature_dims.empty()) {
    return Status::InvalidArgument("no feature dimensions");
  }
  for (std::size_t d : options.feature_dims) {
    if (d >= data.num_dims()) {
      return Status::InvalidArgument("feature dim out of range");
    }
  }
  if (options.target_dim >= data.num_dims()) {
    return Status::InvalidArgument("target dim out of range");
  }
  if (options.ridge_lambda < 0.0) {
    return Status::InvalidArgument("ridge_lambda must be >= 0");
  }

  const std::size_t d = options.feature_dims.size() + 1;
  std::vector<const double*> cols(d - 1);
  for (std::size_t i = 0; i + 1 < d; ++i) {
    cols[i] = data.col(options.feature_dims[i]);
  }
  const double* target = data.col(options.target_dim);
  std::vector<Row> xtx(d, Row(d, 0.0));
  Row xty(d, 0.0);
  Row x(d);
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    for (std::size_t i = 0; i + 1 < d; ++i) x[i] = cols[i][r];
    x[d - 1] = 1.0;
    double y = target[r];
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) xtx[i][j] += x[i] * x[j];
      xty[i] += x[i] * y;
    }
  }
  for (std::size_t i = 0; i + 1 < d; ++i) {
    xtx[i][i] += options.ridge_lambda;
  }
  GUPT_ASSIGN_OR_RETURN(Row coefficients,
                        SolveLinearSystem(std::move(xtx), std::move(xty)));
  LinearModel model;
  model.coefficients = std::move(coefficients);
  return model;
}

}  // namespace reference
}  // namespace analytics
}  // namespace gupt
