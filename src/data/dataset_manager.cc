#include "data/dataset_manager.h"

#include <cmath>
#include <utility>

namespace gupt {

RegisteredDataset::RegisteredDataset(std::string name, Dataset data,
                                     std::optional<Dataset> aged,
                                     DatasetOptions options)
    : name_(std::move(name)),
      data_(std::move(data)),
      aged_(std::move(aged)),
      options_(std::move(options)),
      accountant_(options_.total_epsilon) {}

Status DatasetManager::Register(const std::string& name, Dataset data,
                                DatasetOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (datasets_.count(name) != 0) {
    return Status::AlreadyExists("dataset already registered: " + name);
  }
  // Finite as well as positive: an infinite budget admits every query,
  // and its "inf" ledger line cannot be restored.
  if (!(options.total_epsilon > 0.0) || !std::isfinite(options.total_epsilon)) {
    return Status::InvalidArgument(
        "total privacy budget must be positive and finite");
  }
  if (options.aged_fraction < 0.0 || options.aged_fraction >= 1.0) {
    return Status::InvalidArgument("aged_fraction must lie in [0, 1)");
  }
  if (options.input_ranges) {
    if (options.input_ranges->size() != data.num_dims()) {
      return Status::InvalidArgument(
          "input_ranges arity does not match dataset dimensions");
    }
    for (const Range& r : *options.input_ranges) {
      if (!(r.lo <= r.hi)) {
        return Status::InvalidArgument("input range with lo > hi");
      }
    }
  }

  std::optional<Dataset> aged;
  if (options.aged_fraction > 0.0) {
    auto count = static_cast<std::size_t>(
        std::ceil(options.aged_fraction * static_cast<double>(data.num_rows())));
    if (count == 0 || count >= data.num_rows()) {
      return Status::InvalidArgument(
          "aged_fraction leaves no private (or no aged) rows");
    }
    GUPT_ASSIGN_OR_RETURN(auto parts, data.SplitAt(count));
    aged = std::move(parts.first);
    data = std::move(parts.second);
  }

  datasets_[name] = std::make_shared<RegisteredDataset>(
      name, std::move(data), std::move(aged), std::move(options));
  return Status::OK();
}

Result<std::shared_ptr<RegisteredDataset>> DatasetManager::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset registered as: " + name);
  }
  return it->second;
}

Status DatasetManager::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.erase(name) == 0) {
    return Status::NotFound("no dataset registered as: " + name);
  }
  return Status::OK();
}

std::vector<std::string> DatasetManager::ListNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, unused] : datasets_) names.push_back(name);
  return names;
}

std::vector<std::shared_ptr<RegisteredDataset>> DatasetManager::Registrations()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<RegisteredDataset>> pinned;
  pinned.reserve(datasets_.size());
  for (const auto& [unused, dataset] : datasets_) pinned.push_back(dataset);
  return pinned;  // map order is name order
}

std::vector<DatasetBudgetSnapshot> DatasetManager::BudgetSnapshots() const {
  std::vector<DatasetBudgetSnapshot> snapshots;
  for (const auto& dataset : Registrations()) {
    snapshots.push_back(
        DatasetBudgetSnapshot{dataset->name(), dataset->accountant().Snapshot()});
  }
  return snapshots;
}

std::vector<DatasetBudgetTotals> DatasetManager::BudgetTotalsSnapshot() const {
  std::vector<DatasetBudgetTotals> totals;
  for (const auto& dataset : Registrations()) {
    totals.push_back(
        DatasetBudgetTotals{dataset->name(), dataset->accountant().Totals()});
  }
  return totals;
}

}  // namespace gupt
