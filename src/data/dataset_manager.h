// Dataset manager: the data owner's interface to GUPT.
//
// The dataset manager (paper §3.1, Figure 2) "registers instances of the
// available datasets and maintains the available privacy budget". A
// registration couples the raw table with (a) a total privacy budget that
// sequential composition will draw down, (b) optional public per-dimension
// input ranges, and (c) an optional aged slice — the oldest records, whose
// privacy has lapsed under the aging-of-sensitivity model (§3.3) and which
// the runtime may inspect in the clear to tune block sizes and budgets.

#ifndef GUPT_DATA_DATASET_MANAGER_H_
#define GUPT_DATA_DATASET_MANAGER_H_

#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "dp/accountant.h"

namespace gupt {

/// Registration-time options supplied by the data owner.
struct DatasetOptions {
  /// Total privacy budget for all queries against this dataset.
  double total_epsilon = 1.0;
  /// Public per-dimension input ranges. These must come from public
  /// knowledge (e.g. "household income lies in [0, 500000]"), never from
  /// the data itself (paper §3.1).
  std::optional<std::vector<Range>> input_ranges;
  /// Fraction of the dataset (taken from the front, i.e. the oldest
  /// records) treated as fully aged out and hence non-private. 0 disables
  /// the aging model.
  double aged_fraction = 0.0;
};

/// A dataset registered with the manager, with its budget ledger.
class RegisteredDataset {
 public:
  RegisteredDataset(std::string name, Dataset data,
                    std::optional<Dataset> aged, DatasetOptions options);

  const std::string& name() const { return name_; }

  /// The privacy-sensitive rows queries run against.
  const Dataset& data() const { return data_; }

  /// The aged (non-private) slice, or nullptr when the aging model is off.
  const Dataset* aged() const { return aged_ ? &*aged_ : nullptr; }

  /// Owner-declared public input ranges, or nullptr when absent.
  const std::vector<Range>* input_ranges() const {
    return options_.input_ranges ? &*options_.input_ranges : nullptr;
  }

  dp::PrivacyAccountant& accountant() { return accountant_; }
  const dp::PrivacyAccountant& accountant() const { return accountant_; }

 private:
  std::string name_;
  Dataset data_;
  std::optional<Dataset> aged_;
  DatasetOptions options_;
  dp::PrivacyAccountant accountant_;
};

/// One dataset's budget ledger, as published by introspection endpoints.
struct DatasetBudgetSnapshot {
  std::string dataset;
  dp::AccountantSnapshot budget;
};

/// One dataset's ledger totals (no charge history) — the time-series
/// collector samples these once per tick.
struct DatasetBudgetTotals {
  std::string dataset;
  dp::BudgetTotals totals;
};

/// Thread-safe registry of datasets keyed by name. (Queries run
/// concurrently in a hosted service, and registration may race with them;
/// the returned shared_ptrs keep a dataset alive across an Unregister.)
class DatasetManager {
 public:
  /// Registers `data` under `name`. When options.aged_fraction > 0 the
  /// oldest ceil(fraction * n) rows are peeled into the aged slice and the
  /// remainder becomes the private table. Errors on duplicate names,
  /// non-positive budgets, fractions outside [0, 1), or input ranges whose
  /// arity does not match the data.
  Status Register(const std::string& name, Dataset data,
                  DatasetOptions options);

  /// Looks up a registration.
  Result<std::shared_ptr<RegisteredDataset>> Get(const std::string& name) const;

  /// Removes a registration (and with it the remaining budget).
  Status Unregister(const std::string& name);

  /// Names of all registered datasets, sorted.
  std::vector<std::string> ListNames() const;

  /// Every registration, sorted by name, pinned under one registry lock.
  /// Callers read the accountants afterwards, outside the registry lock
  /// (an accountant's own lock is contended by concurrent Charge()s).
  std::vector<std::shared_ptr<RegisteredDataset>> Registrations() const;

  /// Per-dataset ledger snapshots, sorted by dataset name. Each snapshot
  /// is internally consistent (one lock acquisition per accountant); the
  /// set of datasets is the registry's state at call time.
  std::vector<DatasetBudgetSnapshot> BudgetSnapshots() const;

  /// Per-dataset ledger totals, sorted by dataset name — BudgetSnapshots
  /// minus the charge-history copy (cheap enough for a 1 Hz sampler).
  std::vector<DatasetBudgetTotals> BudgetTotalsSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<RegisteredDataset>> datasets_;
};

}  // namespace gupt

#endif  // GUPT_DATA_DATASET_MANAGER_H_
