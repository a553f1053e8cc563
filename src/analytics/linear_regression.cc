#include "analytics/linear_regression.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace gupt {
namespace analytics {

double LinearModel::Predict(const Row& row,
                            const std::vector<std::size_t>& feature_dims) const {
  double y = coefficients.back();  // intercept
  for (std::size_t i = 0; i < feature_dims.size(); ++i) {
    y += coefficients[i] * row[feature_dims[i]];
  }
  return y;
}

Result<Row> SolveLinearSystem(std::vector<Row> a, Row b) {
  const std::size_t n = b.size();
  if (a.size() != n) {
    return Status::InvalidArgument("system dimensions mismatch");
  }
  for (const Row& row : a) {
    if (row.size() != n) {
      return Status::InvalidArgument("system matrix is not square");
    }
  }
  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      return Status::NumericalError("singular system");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      double factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  Row x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= a[i][c] * x[c];
    x[i] = sum / a[i][i];
  }
  return x;
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

  // Design matrix columns: the features, then a constant 1.0 column (its
  // products x * 1.0 are the column sums), then the target y. Each entry
  // of X^T X and X^T y sums its products over the rows in order; only the
  // upper triangle of X^T X is summed, and IEEE products commute, so the
  // mirror is bit-identical to summing it too.
  const std::size_t d = options.feature_dims.size() + 1;
  const std::size_t n = data.num_rows();
  const std::vector<double> ones(n, 1.0);
  std::vector<const double*> cols(d + 1);
  for (std::size_t i = 0; i + 1 < d; ++i) {
    cols[i] = data.col(options.feature_dims[i]);
  }
  cols[d - 1] = ones.data();
  cols[d] = data.col(options.target_dim);
  std::vector<Row> xtx(d, Row(d));
  Row xty(d);
  Row dots(d + 1);
  for (std::size_t i = 0; i < d; ++i) {
    // dots = x_i . (x_i, ..., x_{d-1}, y)
    vec::ColumnDots(cols[i], std::span(cols).subspan(i), n, dots.data());
    for (std::size_t j = i; j < d; ++j) {
      xtx[i][j] = dots[j - i];
      xtx[j][i] = dots[j - i];
    }
    xty[i] = dots[d - i];
  }
  for (std::size_t i = 0; i + 1 < d; ++i) {
    xtx[i][i] += options.ridge_lambda;  // intercept left undamped
  }
  GUPT_ASSIGN_OR_RETURN(Row coefficients,
                        SolveLinearSystem(std::move(xtx), std::move(xty)));
  LinearModel model;
  model.coefficients = std::move(coefficients);
  return model;
}

Result<double> MeanSquaredError(const Dataset& data, const LinearModel& model,
                                const LinearRegressionOptions& options) {
  if (model.coefficients.size() != options.feature_dims.size() + 1) {
    return Status::InvalidArgument("model arity mismatch");
  }
  for (std::size_t dim : options.feature_dims) {
    if (dim >= data.num_dims()) {
      return Status::InvalidArgument("feature dim out of range");
    }
  }
  if (options.target_dim >= data.num_dims()) {
    return Status::InvalidArgument("target dim out of range");
  }
  std::vector<const double*> cols(options.feature_dims.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    cols[i] = data.col(options.feature_dims[i]);
  }
  const double* target = data.col(options.target_dim);
  double sum = 0.0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    // Same accumulation order as LinearModel::Predict on a row.
    double predicted = model.coefficients.back();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      predicted += model.coefficients[i] * cols[i][r];
    }
    double err = predicted - target[r];
    sum += err * err;
  }
  return sum / static_cast<double>(data.num_rows());
}

ProgramFactory LinearRegressionQuery(const LinearRegressionOptions& options) {
  return MakeProgramFactory(
      "linear_regression[d=" + std::to_string(options.feature_dims.size()) +
          "]",
      options.feature_dims.size() + 1,
      [options](const Dataset& block) -> Result<Row> {
        GUPT_ASSIGN_OR_RETURN(LinearModel model,
                              FitLinearRegression(block, options));
        return model.coefficients;
      });
}

}  // namespace analytics
}  // namespace gupt
