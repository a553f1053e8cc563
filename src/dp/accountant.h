// Privacy-budget accounting via sequential composition.
//
// Each dataset registered with GUPT carries a total privacy budget
// (paper §3.1). The composition lemma (Dwork et al.) says running
// epsilon_1-, ..., epsilon_k-DP computations costs epsilon_1 + ... +
// epsilon_k overall, so the accountant is a debit ledger. Crucially the
// *runtime* holds the ledger, not the untrusted analysis program — this is
// GUPT's defence against privacy-budget attacks (paper §6.2): a malicious
// program cannot issue extra queries because it never sees the accountant.

#ifndef GUPT_DP_ACCOUNTANT_H_
#define GUPT_DP_ACCOUNTANT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace gupt {
namespace dp {

/// One entry in the budget ledger.
struct BudgetCharge {
  std::string label;  // which query/mechanism consumed the budget
  double epsilon;
};

/// A mutually consistent copy of one accountant's state, taken under a
/// single lock acquisition. Reading total/spent/charges through separate
/// accessors can interleave with a concurrent Charge and show a spent
/// total that does not equal the sum of the charge history; introspection
/// endpoints (/budgetz) must never publish such a torn view.
struct AccountantSnapshot {
  double total_epsilon = 0.0;
  double spent_epsilon = 0.0;
  std::vector<BudgetCharge> charges;  // in charge order

  /// Clamped at zero, matching PrivacyAccountant::remaining_epsilon().
  double remaining_epsilon() const {
    double rest = total_epsilon - spent_epsilon;
    return rest > 0.0 ? rest : 0.0;
  }
};

/// The ledger's totals without the charge history — what a once-a-second
/// sampler (the obs time-series collector) needs. Copying the full
/// AccountantSnapshot would clone an unbounded charge vector per tick.
struct BudgetTotals {
  double total_epsilon = 0.0;
  double spent_epsilon = 0.0;
  std::size_t num_charges = 0;

  /// Clamped at zero, matching PrivacyAccountant::remaining_epsilon().
  double remaining_epsilon() const {
    double rest = total_epsilon - spent_epsilon;
    return rest > 0.0 ? rest : 0.0;
  }
};

/// The totals plus the newest charges, copied under one lock — the bounded
/// view /budgetz publishes. `recent` holds the last min(limit,
/// totals.num_charges) charges in charge order, so the first one listed is
/// charge number totals.num_charges - recent.size() + 1.
struct RecentCharges {
  BudgetTotals totals;
  std::vector<BudgetCharge> recent;
};

/// Thread-safe epsilon-DP budget ledger for one dataset. The history keeps
/// each distinct label once and 16 bytes per charge; BudgetCharges exist
/// only in the copies it hands out.
class PrivacyAccountant {
 public:
  /// Creates a ledger with the given total budget (must be positive).
  explicit PrivacyAccountant(double total_epsilon);

  /// Atomically debits `epsilon` if the remaining budget covers it;
  /// otherwise returns kBudgetExhausted and debits nothing. The charge is
  /// taken *before* the mechanism runs so that a failing or malicious
  /// computation cannot roll it back.
  Status Charge(double epsilon, const std::string& label);

  double total_epsilon() const;
  double spent_epsilon() const;
  double remaining_epsilon() const;

  /// Number of successful charges so far.
  std::size_t num_charges() const;

  /// Number of distinct labels among those charges.
  std::size_t num_labels() const;

  /// Copy of the ledger, in charge order.
  std::vector<BudgetCharge> charges() const;

  /// Copy of the charges after the first `first` ones, in charge order
  /// (empty when there are no more) — what an append-only journal writes.
  std::vector<BudgetCharge> ChargesSince(std::size_t first) const;

  /// Atomic copy of the whole ledger state (totals + history agree).
  AccountantSnapshot Snapshot() const;

  /// Atomic copy of the totals alone — one lock acquisition, no history
  /// copy. Same consistency guarantee as Snapshot().
  BudgetTotals Totals() const;

  /// Atomic copy of the totals and the newest `limit` charges. Same
  /// consistency guarantee as Snapshot(), at a cost bounded by `limit`.
  RecentCharges Recent(std::size_t limit) const;

 private:
  /// One charge: its epsilon and the index of its label in labels_.
  struct Entry {
    double epsilon;
    std::uint32_t label;
  };

  BudgetTotals TotalsLocked() const;  // requires mu_
  // Copies charges_[first, last) out as BudgetCharges; requires mu_.
  std::vector<BudgetCharge> CopyLocked(std::size_t first,
                                       std::size_t last) const;

  mutable std::mutex mu_;
  double total_epsilon_;
  double spent_epsilon_ = 0.0;
  std::vector<Entry> charges_;
  std::unordered_map<std::string, std::uint32_t> label_ids_;
  std::vector<const std::string*> labels_;  // label id -> key in label_ids_
};

}  // namespace dp
}  // namespace gupt

#endif  // GUPT_DP_ACCOUNTANT_H_
