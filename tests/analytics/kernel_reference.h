// Reference implementations of the k-means, PCA and OLS kernels, kept
// verbatim from their Row-per-point form (one heap Row per point, a
// vector<Row> covariance and a per-row X^T X update). They exist only so
// kernel_differential_test can assert that the flat-buffer kernels in
// src/analytics/ return bit-identical results; nothing in src/ calls them.

#ifndef GUPT_TESTS_ANALYTICS_KERNEL_REFERENCE_H_
#define GUPT_TESTS_ANALYTICS_KERNEL_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "analytics/kmeans.h"
#include "analytics/linear_regression.h"
#include "analytics/pca.h"
#include "common/status.h"
#include "common/vec.h"
#include "data/dataset.h"

namespace gupt {
namespace analytics {
namespace reference {

Result<KMeansResult> RunKMeans(const Dataset& data,
                               const KMeansOptions& options);

Result<double> IntraClusterVariance(
    const Dataset& data, const std::vector<Row>& centers,
    const std::vector<std::size_t>& feature_dims);

Result<PcaResult> ComputeTopComponent(const Dataset& data,
                                      const PcaOptions& options);

/// Shares the production SolveLinearSystem: only the X^T X / X^T y
/// accumulation is the reference's own.
Result<LinearModel> FitLinearRegression(
    const Dataset& data, const LinearRegressionOptions& options);

}  // namespace reference
}  // namespace analytics
}  // namespace gupt

#endif  // GUPT_TESTS_ANALYTICS_KERNEL_REFERENCE_H_
