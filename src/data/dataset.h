// In-memory multi-dimensional dataset, stored columnar.
//
// GUPT's data model (paper §3.1) is a table of real-valued vectors with
// optional per-dimension input ranges supplied by the data owner. Storage
// is an immutable, shared *column store*: one column-major buffer of
// doubles (column d starts at base + d * num_rows) behind a refcounted
// ColumnStore. A Dataset is a cheap {store, offset, length} handle over
// such a store, so contiguous slicing (SplitAt, Slice) is zero-copy,
// while an arbitrary-index gather (Subset, a partition block) fills a
// fresh store with one allocation. Untrusted programs still can never
// mutate shared data: every accessor is const and the store lives behind
// a shared_ptr<const>.
//
// Aliasing rules (see docs/architecture.md "Memory layout"):
//   * A ColumnStore is immutable from the moment a Dataset is built over
//     it; handles never invalidate.
//   * A store either owns its buffer or borrows column-major doubles
//     owned elsewhere (a pool worker's read-only input segment). Both are
//     read through ColumnStore::column(); whoever builds a borrowing
//     store keeps the memory alive and unchanged while any handle to it
//     exists.
//   * Dataset handles keep the whole store alive; a window over 1% of
//     the rows pins 100% of the store (gather a Subset when that
//     matters).
//   * col(d) pointers are valid exactly as long as some handle to the
//     store exists.
//   * Column names are shared, never copied, between a store and the
//     stores gathered from it.

#ifndef GUPT_DATA_DATASET_H_
#define GUPT_DATA_DATASET_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/status.h"
#include "common/vec.h"

namespace gupt {

/// Closed interval bound for one dimension of the input data.
struct Range {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double x) const { return x >= lo && x <= hi; }
  double width() const { return hi - lo; }
};

/// Immutable column-major storage shared by every handle over it. Never
/// mutated after construction; always held behind shared_ptr<const>.
struct ColumnStore {
  /// The values when the store owns them; null when it borrows them.
  std::unique_ptr<double[]> owned;
  /// num_dims columns of num_rows values each, column after column.
  const double* base = nullptr;
  std::size_t num_rows = 0;
  std::size_t num_dims = 0;
  /// Null when the columns are unnamed.
  std::shared_ptr<const std::vector<std::string>> column_names;

  /// The one read path: column `dim` of either kind of store.
  const double* column(std::size_t dim) const {
    return base + dim * num_rows;
  }

  /// A store owning uninitialised room for num_rows x num_dims values.
  static std::shared_ptr<ColumnStore> Allocate(
      std::size_t num_rows, std::size_t num_dims,
      std::shared_ptr<const std::vector<std::string>> column_names);
};

/// Immutable rectangular table of doubles: a shared-ownership window over
/// a ColumnStore. Copying a Dataset copies three words, never the data.
class Dataset {
 public:
  Dataset() = default;

  /// Builds a dataset from rows (transposed into columns); all rows must
  /// share one dimension and the dataset must be non-empty. `column_names`,
  /// when given, must match the dimension.
  static Result<Dataset> Create(std::vector<Row> rows,
                                std::vector<std::string> column_names = {});

  /// Builds a dataset directly from columnar data (no transpose). All
  /// columns must be non-empty and equally sized.
  static Result<Dataset> FromColumns(std::vector<std::vector<double>> columns,
                                     std::vector<std::string> column_names = {});

  /// Builds a single-column dataset.
  static Result<Dataset> FromColumn(const std::vector<double>& values,
                                    const std::string& name = "value");

  /// Loads a numeric CSV file.
  static Result<Dataset> FromCsvFile(const std::string& path, bool has_header);

  /// Wraps an existing store (offset+length window): a block gathered by
  /// the partitioner, or a store borrowing a pool worker's segment.
  static Dataset FromStore(std::shared_ptr<const ColumnStore> store,
                           std::size_t offset, std::size_t length);

  std::size_t num_rows() const { return length_; }
  std::size_t num_dims() const {
    return store_ == nullptr ? 0 : store_->num_dims;
  }
  const std::vector<std::string>& column_names() const {
    static const std::vector<std::string> kEmpty;
    return store_ == nullptr || store_->column_names == nullptr
               ? kEmpty
               : *store_->column_names;
  }

  /// Zero-copy contiguous column slice of length num_rows(). `dim` must be
  /// in range (use Column for checked access).
  const double* col(std::size_t dim) const {
    return store_->column(dim) + offset_;
  }

  /// Element access without materializing a row.
  double at(std::size_t row, std::size_t dim) const { return col(dim)[row]; }

  /// Materialized copy of row `i` (gathers across columns). Prefer
  /// col()/at() on hot paths.
  Row row(std::size_t i) const;

  /// Gathers row `i` into `*out` (resized to num_dims) without allocating
  /// when out already has the right capacity.
  void CopyRowInto(std::size_t i, Row* out) const;

  /// Materialized row-major copy of the whole table (tests, exports).
  std::vector<Row> MaterializeRows() const;

  /// The shared store handle (for aliasing checks and block owners).
  const std::shared_ptr<const ColumnStore>& store() const { return store_; }
  std::size_t offset() const { return offset_; }

  /// Checked copy of one column.
  Result<std::vector<double>> Column(std::size_t dim) const;

  /// New dataset holding copies of the rows at `indices` (in order),
  /// gathered into a fresh store. Out-of-range indices are an error.
  Result<Dataset> Subset(const std::vector<std::size_t>& indices) const;

  /// Zero-copy window [offset, offset+length) sharing this store.
  /// Errors when the window is empty or exceeds num_rows().
  Result<Dataset> Slice(std::size_t offset, std::size_t length) const;

  /// Splits into ([0, count), [count, n)) — used by the aging model to peel
  /// off the oldest records. Both halves share this store (zero-copy).
  /// count must leave both sides non-empty.
  Result<std::pair<Dataset, Dataset>> SplitAt(std::size_t count) const;

  /// Exact per-dimension [min, max] of the data. Note: these bounds are
  /// *data-dependent* and therefore sensitive; the runtime only uses them
  /// where the paper's GUPT-tight mode assumes the analyst already knows a
  /// tight public range.
  std::vector<Range> EmpiricalRanges() const;

 private:
  Dataset(std::shared_ptr<const ColumnStore> store, std::size_t offset,
          std::size_t length)
      : store_(std::move(store)), offset_(offset), length_(length) {}

  std::shared_ptr<const ColumnStore> store_;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

}  // namespace gupt

#endif  // GUPT_DATA_DATASET_H_
