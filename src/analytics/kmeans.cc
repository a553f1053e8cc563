#include "analytics/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace gupt {
namespace analytics {
namespace {

std::vector<std::size_t> ResolveFeatureDims(const Dataset& data,
                                            const KMeansOptions& options) {
  if (!options.feature_dims.empty()) return options.feature_dims;
  std::vector<std::size_t> dims(data.num_dims());
  for (std::size_t d = 0; d < dims.size(); ++d) dims[d] = d;
  return dims;
}

// Gathers the `dims` columns into one row-major n x m buffer: point r is
// points[r*m, r*m + m).
Result<std::vector<double>> GatherPoints(const Dataset& data,
                                         const std::vector<std::size_t>& dims) {
  for (std::size_t d : dims) {
    if (d >= data.num_dims()) {
      return Status::InvalidArgument("feature dim out of range");
    }
  }
  const std::size_t n = data.num_rows();
  const std::size_t m = dims.size();
  std::vector<double> points(n * m);
  for (std::size_t i = 0; i < m; ++i) {
    const double* col = data.col(dims[i]);
    for (std::size_t r = 0; r < n; ++r) points[r * m + i] = col[r];
  }
  return points;
}

// vec::SquaredDistance on flat m-vectors: (a-b)^2 summed in feature order.
double SqDist(const double* a, const double* b, std::size_t m) {
  double sum = 0.0;
  for (std::size_t f = 0; f < m; ++f) {
    double d = a[f] - b[f];
    sum += d * d;
  }
  return sum;
}

// Index of the centre nearest `point` among the first k of `centers`
// (row-major, m per centre). The strict < sends ties to the lowest index.
std::size_t NearestCenter(const double* point, const double* centers,
                          std::size_t k, std::size_t m) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    double d = SqDist(point, centers + c * m, m);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

// Squared distance to the nearest centre, recomputed against that centre
// (when every distance is NaN the nearest is centre 0, not +inf).
double NearestSqDist(const double* point, const double* centers,
                     std::size_t k, std::size_t m) {
  return SqDist(point, centers + NearestCenter(point, centers, k, m) * m, m);
}

// k-means++ seeding: first centre uniform, then proportional to squared
// distance from the nearest chosen centre. Returns k x m, row-major.
std::vector<double> SeedCenters(const std::vector<double>& points,
                                std::size_t n, std::size_t m, std::size_t k,
                                Rng* rng) {
  std::vector<double> centers(k * m);
  std::copy_n(points.data() + rng->UniformUint64(n) * m, m, centers.data());
  std::vector<double> dist_sq(n);
  for (std::size_t chosen = 1; chosen < k; ++chosen) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dist_sq[i] = NearestSqDist(points.data() + i * m, centers.data(),
                                 chosen, m);
      total += dist_sq[i];
    }
    // All points coincide with existing centres: duplicate the last one.
    const double* next = total == 0.0
                             ? centers.data() + (chosen - 1) * m
                             : points.data() + rng->Categorical(dist_sq) * m;
    std::copy_n(next, m, centers.data() + chosen * m);
  }
  return centers;
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
  GUPT_ASSIGN_OR_RETURN(std::vector<double> points, GatherPoints(data, dims));
  const std::size_t n = data.num_rows();
  const std::size_t m = dims.size();
  const std::size_t k = options.k;
  if (n < k) {
    return Status::InvalidArgument(
        "block has fewer rows than k; cannot cluster");
  }

  Rng rng(options.seed);
  std::vector<double> centers = SeedCenters(points, n, m, k, &rng);

  KMeansResult result;
  std::vector<double> sums(k * m);
  std::vector<std::size_t> counts(k);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations_run;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    // Assign and accumulate in one pass: each centre's sums still add its
    // points in row order.
    for (std::size_t i = 0; i < n; ++i) {
      const double* point = points.data() + i * m;
      const std::size_t c = NearestCenter(point, centers.data(), k, m);
      double* sum = sums.data() + c * m;
      for (std::size_t f = 0; f < m; ++f) sum[f] += point[f];
      ++counts[c];
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep the empty cluster's old centre
      const double scale = 1.0 / static_cast<double>(counts[c]);
      double* center = centers.data() + c * m;
      double moved = 0.0;
      for (std::size_t f = 0; f < m; ++f) {
        const double next = sums[c * m + f] * scale;
        const double d = next - center[f];
        moved += d * d;
        center[f] = next;
      }
      movement += std::sqrt(moved);
    }
    if (options.tolerance > 0.0 && movement < options.tolerance) break;
  }

  result.centers.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    result.centers[c].assign(centers.begin() + c * m,
                             centers.begin() + (c + 1) * m);
  }
  std::sort(result.centers.begin(), result.centers.end(),
            [](const Row& a, const Row& b) { return a[0] < b[0]; });
  return result;
}

ProgramFactory KMeansQuery(const KMeansOptions& options) {
  std::size_t feature_count = options.feature_dims.size();
  // With empty feature_dims the arity depends on the data; the factory
  // cannot know it, so require explicit dims for GUPT execution.
  std::size_t output_dims = options.k * feature_count;
  return MakeProgramFactory(
      "kmeans[k=" + std::to_string(options.k) + "]", output_dims,
      [options](const Dataset& block) -> Result<Row> {
        if (options.feature_dims.empty()) {
          return Status::InvalidArgument(
              "KMeansQuery requires explicit feature_dims");
        }
        GUPT_ASSIGN_OR_RETURN(KMeansResult result, RunKMeans(block, options));
        Row flat;
        flat.reserve(options.k * options.feature_dims.size());
        for (const Row& c : result.centers) {
          flat.insert(flat.end(), c.begin(), c.end());
        }
        return flat;
      });
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
  GUPT_ASSIGN_OR_RETURN(std::vector<double> points, GatherPoints(data, dims));
  const std::size_t m = dims.size();
  std::vector<double> flat;
  flat.reserve(centers.size() * m);
  for (const Row& c : centers) {
    if (c.size() != m) {
      return Status::InvalidArgument("center dimension mismatch");
    }
    flat.insert(flat.end(), c.begin(), c.end());
  }
  double total = 0.0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    total += NearestSqDist(points.data() + i * m, flat.data(), centers.size(),
                           m);
  }
  return total / static_cast<double>(data.num_rows());
}

Result<std::vector<Row>> UnflattenCenters(const Row& flat, std::size_t k,
                                          std::size_t dims) {
  if (k == 0 || dims == 0 || flat.size() != k * dims) {
    return Status::InvalidArgument("flat center arity mismatch");
  }
  std::vector<Row> centers(k, Row(dims));
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < dims; ++d) {
      centers[c][d] = flat[c * dims + d];
    }
  }
  return centers;
}

}  // namespace analytics
}  // namespace gupt
