#include "analytics/queries.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace gupt {
namespace analytics {
namespace {

Result<std::vector<double>> ColumnOrError(const Dataset& block,
                                          std::size_t dim) {
  if (dim >= block.num_dims()) {
    return Status::InvalidArgument("query column " + std::to_string(dim) +
                                   " out of range for block with " +
                                   std::to_string(block.num_dims()) + " dims");
  }
  return block.Column(dim);
}

}  // namespace

ProgramFactory MeanQuery(std::size_t dim) {
  return MakeProgramFactory(
      "mean[" + std::to_string(dim) + "]", 1,
      [dim](const Dataset& block) -> Result<Row> {
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        return Row{stats::Mean(column)};
      });
}

ProgramFactory VarianceQuery(std::size_t dim) {
  return MakeProgramFactory(
      "variance[" + std::to_string(dim) + "]", 1,
      [dim](const Dataset& block) -> Result<Row> {
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        return Row{stats::Variance(column)};
      });
}

ProgramFactory MedianQuery(std::size_t dim) { return QuantileQuery(dim, 0.5); }

ProgramFactory QuantileQuery(std::size_t dim, double q) {
  return MakeProgramFactory(
      "quantile[" + std::to_string(dim) + "," + std::to_string(q) + "]", 1,
      [dim, q](const Dataset& block) -> Result<Row> {
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        GUPT_ASSIGN_OR_RETURN(double value,
                              stats::Quantile(std::move(column), q));
        return Row{value};
      });
}

ProgramFactory MeanAllDimsQuery(std::size_t num_dims) {
  return MakeProgramFactory(
      "mean_all[" + std::to_string(num_dims) + "]", num_dims,
      [num_dims](const Dataset& block) -> Result<Row> {
        if (block.num_dims() != num_dims) {
          return Status::InvalidArgument("block dimension mismatch");
        }
        if (block.num_rows() == 0) {
          return Status::InvalidArgument("mean of an empty row set");
        }
        // Per-dimension sums over the contiguous column: the same addend
        // sequence per accumulator as the old row-major MeanRows, so the
        // result is bit-identical — just cache-friendly now.
        const std::size_t n = block.num_rows();
        Row mean(num_dims, 0.0);
        for (std::size_t d = 0; d < num_dims; ++d) {
          const double* column = block.col(d);
          double acc = 0.0;
          for (std::size_t r = 0; r < n; ++r) acc += column[r];
          mean[d] = acc * (1.0 / static_cast<double>(n));
        }
        return mean;
      });
}

ProgramFactory CovarianceQuery(std::size_t dim_a, std::size_t dim_b) {
  return MakeProgramFactory(
      "covariance[" + std::to_string(dim_a) + "," + std::to_string(dim_b) +
          "]",
      1, [dim_a, dim_b](const Dataset& block) -> Result<Row> {
        GUPT_ASSIGN_OR_RETURN(auto a, ColumnOrError(block, dim_a));
        GUPT_ASSIGN_OR_RETURN(auto b, ColumnOrError(block, dim_b));
        double mean_a = stats::Mean(a);
        double mean_b = stats::Mean(b);
        double acc = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
          acc += (a[i] - mean_a) * (b[i] - mean_b);
        }
        return Row{a.empty() ? 0.0 : acc / static_cast<double>(a.size())};
      });
}

ProgramFactory HistogramQuery(std::size_t dim, std::size_t num_bins, double lo,
                              double hi) {
  return MakeProgramFactory(
      "histogram[" + std::to_string(dim) + "," + std::to_string(num_bins) +
          "]",
      num_bins, [dim, num_bins, lo, hi](const Dataset& block) -> Result<Row> {
        if (num_bins == 0 || !(lo < hi)) {
          return Status::InvalidArgument("invalid histogram parameters");
        }
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        Row bins(num_bins, 0.0);
        for (double v : column) {
          double t = (v - lo) / (hi - lo) * static_cast<double>(num_bins);
          auto idx = static_cast<std::ptrdiff_t>(std::floor(t));
          idx = std::clamp<std::ptrdiff_t>(
              idx, 0, static_cast<std::ptrdiff_t>(num_bins) - 1);
          bins[static_cast<std::size_t>(idx)] += 1.0;
        }
        if (!column.empty()) {
          vec::ScaleInPlace(&bins, 1.0 / static_cast<double>(column.size()));
        }
        return bins;
      });
}

ProgramFactory WinsorizedMeanQuery(std::size_t dim, double trim) {
  return MakeProgramFactory(
      "winsorized_mean[" + std::to_string(dim) + "," + std::to_string(trim) +
          "]",
      1, [dim, trim](const Dataset& block) -> Result<Row> {
        if (!(trim >= 0.0 && trim < 0.5)) {  // a NaN trim fails too
          return Status::InvalidArgument("trim must be in [0, 0.5)");
        }
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        std::vector<double> sorted = column;
        stats::SortAscending(sorted);
        GUPT_ASSIGN_OR_RETURN(double lo, stats::SortedQuantile(sorted, trim));
        GUPT_ASSIGN_OR_RETURN(double hi,
                              stats::SortedQuantile(sorted, 1.0 - trim));
        double sum = 0.0;
        for (double v : column) sum += vec::ClampScalar(v, lo, hi);
        return Row{sum / static_cast<double>(column.size())};
      });
}

ProgramFactory TrimmedMeanQuery(std::size_t dim, double trim) {
  return MakeProgramFactory(
      "trimmed_mean[" + std::to_string(dim) + "," + std::to_string(trim) + "]",
      1, [dim, trim](const Dataset& block) -> Result<Row> {
        if (!(trim >= 0.0 && trim < 0.5)) {  // a NaN trim fails too
          return Status::InvalidArgument("trim must be in [0, 0.5)");
        }
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        // Sums the middle in sorted order, so it needs the full sort.
        stats::SortAscending(column);
        auto drop = static_cast<std::size_t>(
            trim * static_cast<double>(column.size()));
        if (column.size() <= 2 * drop) {
          return Status::InvalidArgument("block too small for trim level");
        }
        double sum = 0.0;
        for (std::size_t i = drop; i < column.size() - drop; ++i) {
          sum += column[i];
        }
        return Row{sum / static_cast<double>(column.size() - 2 * drop)};
      });
}

ProgramFactory CovarianceMatrixQuery(const std::vector<std::size_t>& dims) {
  return MakeProgramFactory(
      "covariance_matrix[d=" + std::to_string(dims.size()) + "]",
      dims.size() * dims.size(),
      [dims](const Dataset& block) -> Result<Row> {
        if (dims.empty()) {
          return Status::InvalidArgument("no dimensions selected");
        }
        for (std::size_t d : dims) {
          if (d >= block.num_dims()) {
            return Status::InvalidArgument("covariance dim out of range");
          }
        }
        const std::size_t k = dims.size();
        const std::size_t n = block.num_rows();
        // Column-major accumulation; every accumulator still sees the rows
        // in row order, so the sums match the old row loops bit for bit.
        Row mean(k, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
          const double* ci = block.col(dims[i]);
          double acc = 0.0;
          for (std::size_t r = 0; r < n; ++r) acc += ci[r];
          mean[i] = acc;
        }
        vec::ScaleInPlace(&mean, 1.0 / static_cast<double>(n));
        Row flat(k * k, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
          const double* ci = block.col(dims[i]);
          for (std::size_t j = 0; j < k; ++j) {
            const double* cj = block.col(dims[j]);
            double acc = 0.0;
            for (std::size_t r = 0; r < n; ++r) {
              acc += (ci[r] - mean[i]) * (cj[r] - mean[j]);
            }
            flat[i * k + j] = acc;
          }
        }
        vec::ScaleInPlace(&flat, 1.0 / static_cast<double>(n));
        return flat;
      });
}

ProgramFactory DecisionStumpQuery(const std::vector<std::size_t>& feature_dims,
                                  std::size_t label_dim) {
  return MakeProgramFactory(
      "decision_stump[d=" + std::to_string(feature_dims.size()) + "]", 3,
      [feature_dims, label_dim](const Dataset& block) -> Result<Row> {
        if (feature_dims.empty()) {
          return Status::InvalidArgument("no feature dimensions");
        }
        for (std::size_t d : feature_dims) {
          if (d >= block.num_dims()) {
            return Status::InvalidArgument("feature dim out of range");
          }
        }
        if (label_dim >= block.num_dims()) {
          return Status::InvalidArgument("label dim out of range");
        }
        double best_accuracy = -1.0;
        Row best = {0.0, 0.0, 1.0};  // (feature, threshold, polarity)
        for (std::size_t f = 0; f < feature_dims.size(); ++f) {
          GUPT_ASSIGN_OR_RETURN(auto column, block.Column(feature_dims[f]));
          GUPT_ASSIGN_OR_RETURN(auto labels, block.Column(label_dim));
          // Candidate thresholds: the sorted unique values' midpoints,
          // thinned to at most 64 candidates for large blocks.
          std::vector<double> sorted = column;
          stats::SortAscending(sorted);
          std::size_t stride = std::max<std::size_t>(1, sorted.size() / 64);
          for (std::size_t i = 0; i + 1 < sorted.size(); i += stride) {
            double threshold = 0.5 * (sorted[i] + sorted[i + 1]);
            std::size_t hits = 0;
            for (std::size_t r = 0; r < column.size(); ++r) {
              bool predicted = column[r] > threshold;
              bool actual = labels[r] > 0.5;
              if (predicted == actual) ++hits;
            }
            double accuracy =
                static_cast<double>(hits) / static_cast<double>(column.size());
            double polarity = 1.0;
            if (accuracy < 0.5) {  // inverted stump is better
              accuracy = 1.0 - accuracy;
              polarity = -1.0;
            }
            if (accuracy > best_accuracy) {
              best_accuracy = accuracy;
              best = {static_cast<double>(f), threshold, polarity};
            }
          }
        }
        return best;
      });
}

ProgramFactory IqrQuery(std::size_t dim) {
  return MakeProgramFactory(
      "iqr[" + std::to_string(dim) + "]", 1,
      [dim](const Dataset& block) -> Result<Row> {
        GUPT_ASSIGN_OR_RETURN(auto column, ColumnOrError(block, dim));
        stats::SortAscending(column);
        GUPT_ASSIGN_OR_RETURN(double q25, stats::SortedQuantile(column, 0.25));
        GUPT_ASSIGN_OR_RETURN(double q75, stats::SortedQuantile(column, 0.75));
        return Row{q75 - q25};
      });
}

}  // namespace analytics
}  // namespace gupt
