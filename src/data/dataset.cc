#include "data/dataset.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace gupt {
namespace {

std::shared_ptr<const std::vector<std::string>> SharedNames(
    std::vector<std::string> names) {
  if (names.empty()) return nullptr;
  return std::make_shared<const std::vector<std::string>>(std::move(names));
}

}  // namespace

std::shared_ptr<ColumnStore> ColumnStore::Allocate(
    std::size_t num_rows, std::size_t num_dims,
    std::shared_ptr<const std::vector<std::string>> column_names) {
  auto store = std::make_shared<ColumnStore>();
  store->owned = std::make_unique_for_overwrite<double[]>(num_rows * num_dims);
  store->base = store->owned.get();
  store->num_rows = num_rows;
  store->num_dims = num_dims;
  store->column_names = std::move(column_names);
  return store;
}

Result<Dataset> Dataset::Create(std::vector<Row> rows,
                                std::vector<std::string> column_names) {
  if (rows.empty()) {
    return Status::InvalidArgument("dataset must contain at least one row");
  }
  const std::size_t dims = rows[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("dataset rows must have at least one dim");
  }
  for (const Row& r : rows) {
    if (r.size() != dims) {
      return Status::InvalidArgument("dataset rows have mixed dimensions");
    }
  }
  if (!column_names.empty() && column_names.size() != dims) {
    return Status::InvalidArgument("column_names arity does not match rows");
  }
  const std::size_t n = rows.size();
  auto store =
      ColumnStore::Allocate(n, dims, SharedNames(std::move(column_names)));
  for (std::size_t d = 0; d < dims; ++d) {
    double* column = store->owned.get() + d * n;
    for (std::size_t i = 0; i < n; ++i) column[i] = rows[i][d];
  }
  return Dataset(std::move(store), 0, n);
}

Result<Dataset> Dataset::FromColumns(std::vector<std::vector<double>> columns,
                                     std::vector<std::string> column_names) {
  if (columns.empty()) {
    return Status::InvalidArgument("dataset must have at least one column");
  }
  const std::size_t n = columns[0].size();
  if (n == 0) {
    return Status::InvalidArgument("dataset must contain at least one row");
  }
  for (const auto& column : columns) {
    if (column.size() != n) {
      return Status::InvalidArgument("dataset columns have mixed lengths");
    }
  }
  if (!column_names.empty() && column_names.size() != columns.size()) {
    return Status::InvalidArgument("column_names arity does not match columns");
  }
  auto store = ColumnStore::Allocate(n, columns.size(),
                                     SharedNames(std::move(column_names)));
  for (std::size_t d = 0; d < columns.size(); ++d) {
    std::copy(columns[d].begin(), columns[d].end(), store->owned.get() + d * n);
  }
  return Dataset(std::move(store), 0, n);
}

Result<Dataset> Dataset::FromColumn(const std::vector<double>& values,
                                    const std::string& name) {
  return FromColumns({values}, {name});
}

Result<Dataset> Dataset::FromCsvFile(const std::string& path,
                                     bool has_header) {
  GUPT_ASSIGN_OR_RETURN(csv::Table table, csv::ReadFile(path, has_header));
  return Create(std::move(table.rows), std::move(table.column_names));
}

Dataset Dataset::FromStore(std::shared_ptr<const ColumnStore> store,
                           std::size_t offset, std::size_t length) {
  return Dataset(std::move(store), offset, length);
}

Row Dataset::row(std::size_t i) const {
  Row out;
  CopyRowInto(i, &out);
  return out;
}

void Dataset::CopyRowInto(std::size_t i, Row* out) const {
  const std::size_t dims = num_dims();
  out->resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    (*out)[d] = col(d)[i];
  }
}

std::vector<Row> Dataset::MaterializeRows() const {
  std::vector<Row> rows(length_);
  for (std::size_t i = 0; i < length_; ++i) CopyRowInto(i, &rows[i]);
  return rows;
}

Result<std::vector<double>> Dataset::Column(std::size_t dim) const {
  if (dim >= num_dims()) {
    return Status::InvalidArgument("column index out of range");
  }
  const double* src = col(dim);
  return std::vector<double>(src, src + length_);
}

Result<Dataset> Dataset::Subset(const std::vector<std::size_t>& indices) const {
  if (indices.empty()) {
    return Status::InvalidArgument("subset must select at least one row");
  }
  for (std::size_t i : indices) {
    if (i >= length_) {
      return Status::InvalidArgument("subset index out of range");
    }
  }
  const std::size_t m = indices.size();
  auto gathered = ColumnStore::Allocate(m, num_dims(), store_->column_names);
  double* out = gathered->owned.get();
  for (std::size_t d = 0; d < num_dims(); ++d) {
    const double* src = col(d);
    for (std::size_t i = 0; i < m; ++i) *out++ = src[indices[i]];
  }
  return Dataset(std::move(gathered), 0, m);
}

Result<Dataset> Dataset::Slice(std::size_t offset, std::size_t length) const {
  if (length == 0 || offset + length > length_) {
    return Status::InvalidArgument("slice window out of range");
  }
  return Dataset(store_, offset_ + offset, length);
}

Result<std::pair<Dataset, Dataset>> Dataset::SplitAt(std::size_t count) const {
  if (count == 0 || count >= num_rows()) {
    return Status::InvalidArgument(
        "split point must leave both sides non-empty");
  }
  return std::make_pair(Dataset(store_, offset_, count),
                        Dataset(store_, offset_ + count, length_ - count));
}

std::vector<Range> Dataset::EmpiricalRanges() const {
  const std::size_t dims = num_dims();
  std::vector<Range> ranges(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    ranges[d].lo = std::numeric_limits<double>::infinity();
    ranges[d].hi = -std::numeric_limits<double>::infinity();
    const double* column = col(d);
    for (std::size_t i = 0; i < length_; ++i) {
      ranges[d].lo = std::min(ranges[d].lo, column[i]);
      ranges[d].hi = std::max(ranges[d].hi, column[i]);
    }
  }
  return ranges;
}

}  // namespace gupt
