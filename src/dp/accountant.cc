#include "dp/accountant.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gupt {
namespace dp {
namespace {

// Tolerance for floating-point accumulation when comparing against the
// total: a charge that overshoots by less than this is still admitted so
// that e.g. ten charges of total/10 exactly exhaust the budget.
constexpr double kSlack = 1e-9;

}  // namespace

PrivacyAccountant::PrivacyAccountant(double total_epsilon)
    : total_epsilon_(total_epsilon) {
  assert(total_epsilon > 0.0 && std::isfinite(total_epsilon));
}

Status PrivacyAccountant::Charge(double epsilon, const std::string& label) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("charge epsilon must be positive: " + label);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (spent_epsilon_ + epsilon > total_epsilon_ * (1.0 + kSlack) + kSlack) {
    return Status::BudgetExhausted(
        "charge of " + std::to_string(epsilon) + " for '" + label +
        "' exceeds remaining budget " +
        std::to_string(total_epsilon_ - spent_epsilon_));
  }
  const auto [it, added] = label_ids_.try_emplace(
      label, static_cast<std::uint32_t>(labels_.size()));
  if (added) labels_.push_back(&it->first);
  spent_epsilon_ += epsilon;
  charges_.push_back(Entry{epsilon, it->second});
  return Status::OK();
}

double PrivacyAccountant::total_epsilon() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_epsilon_;
}

double PrivacyAccountant::spent_epsilon() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spent_epsilon_;
}

double PrivacyAccountant::remaining_epsilon() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(0.0, total_epsilon_ - spent_epsilon_);
}

std::size_t PrivacyAccountant::num_charges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charges_.size();
}

std::size_t PrivacyAccountant::num_labels() const {
  std::lock_guard<std::mutex> lock(mu_);
  return labels_.size();
}

std::vector<BudgetCharge> PrivacyAccountant::CopyLocked(
    std::size_t first, std::size_t last) const {
  std::vector<BudgetCharge> out;
  out.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) {
    out.push_back(BudgetCharge{*labels_[charges_[i].label],
                               charges_[i].epsilon});
  }
  return out;
}

std::vector<BudgetCharge> PrivacyAccountant::charges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CopyLocked(0, charges_.size());
}

BudgetTotals PrivacyAccountant::TotalsLocked() const {
  BudgetTotals totals;
  totals.total_epsilon = total_epsilon_;
  totals.spent_epsilon = spent_epsilon_;
  totals.num_charges = charges_.size();
  return totals;
}

std::vector<BudgetCharge> PrivacyAccountant::ChargesSince(
    std::size_t first) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first >= charges_.size()) return {};
  return CopyLocked(first, charges_.size());
}

AccountantSnapshot PrivacyAccountant::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  AccountantSnapshot snapshot;
  snapshot.total_epsilon = total_epsilon_;
  snapshot.spent_epsilon = spent_epsilon_;
  snapshot.charges = CopyLocked(0, charges_.size());
  return snapshot;
}

BudgetTotals PrivacyAccountant::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalsLocked();
}

RecentCharges PrivacyAccountant::Recent(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  RecentCharges recent;
  recent.totals = TotalsLocked();
  const std::size_t listed = std::min(limit, charges_.size());
  recent.recent = CopyLocked(charges_.size() - listed, charges_.size());
  return recent;
}

}  // namespace dp
}  // namespace gupt
