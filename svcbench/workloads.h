// The benchmark's three workloads: their inputs (fixed dataset replicas,
// and a charge history and request streams drawn from the seed), the
// service configuration each one runs, and the checks every answer and
// ledger must pass.
//
// Why these three (the full rationale is in svcbench/README.md):
//   pooled_ml        the paper's §7 analytics on a pre-warmed chamber pool;
//                    the pool's pipe IPC and the analytics kernels do the
//                    work, the ledger does none.
//   durable_ledger   cheap scalar queries over two datasets whose restored
//                    ledger holds a long history; the per-query ledger
//                    rewrite does the work, the thread and chamber pools
//                    none.
//   inthread_fanout  tiny blocks fanned out over the shared block thread
//                    pool; dispatch, the pool-wide join and the partition
//                    gather do the work, there are no pipes and no ledger.
//                    Run by hand only: its tail follows host CPU steal too
//                    closely to gate on a shared machine.

#ifndef SVCBENCH_WORKLOADS_H_
#define SVCBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "service/gupt_service.h"

namespace svcbench {

/// One kind of query an analyst sends.
struct QueryTemplate {
  gupt::ProgramSpec program;
  /// Declared tight output ranges; their count is the program's arity.
  std::vector<gupt::Range> ranges;
  /// Mean-type answers must also lie within the noise tail of the
  /// non-private value.
  bool mean_type = false;
};

struct DatasetInput {
  std::string name;
  gupt::Dataset data;
  gupt::DatasetOptions options;
  /// Charges already in the ledger when the service restarts (written to
  /// the ledger file and restored at set-up).
  std::vector<gupt::dp::BudgetCharge> history;
  /// Non-private answer of each mean-type template, by template index.
  std::map<std::size_t, double> truth;
};

/// Analysts per workload, each with one query in flight.
constexpr std::size_t kAnalysts = 4;

struct Workload {
  std::string name;
  /// The service configuration (ledger_path is filled in by the caller).
  gupt::ServiceOptions options;
  bool durable = false;  // ledger file + restore + /budgetz scraper
  /// Queries completed during set-up so every lazy cost is paid before
  /// the first timed submit.
  std::size_t warmup_queries = 0;
  std::vector<DatasetInput> datasets;
  std::vector<QueryTemplate> templates;
};

/// Names of the workloads MakeWorkload accepts.
std::vector<std::string> WorkloadNames();

/// Builds a workload's inputs; the same seed gives the same history and
/// request streams (the datasets never change).
gupt::Result<Workload> MakeWorkload(const std::string& name,
                                    std::uint64_t seed);

/// A request together with what the benchmark knows about it.
struct Query {
  gupt::QueryRequest request;
  std::size_t template_index = 0;
  std::size_t dataset_index = 0;
  double epsilon = 0.0;
};

/// One analyst's deterministic request sequence.
class RequestStream {
 public:
  RequestStream(const Workload& workload, std::uint64_t seed,
                std::size_t analyst);
  Query Next();

 private:
  const Workload* workload_;
  std::string analyst_;
  std::mt19937_64 rng_;
};

/// Checks one answer: arity, finiteness, range widened by the Laplace tail
/// at 1e-9, for mean-type queries the distance to the non-private value,
/// and the charge. On failure `why` says which.
bool CheckAnswer(const Workload& workload, const Query& query,
                 const gupt::QueryReport& report, std::string* why);

/// Charges the benchmark saw acknowledged, per dataset index.
using Acks = std::vector<std::vector<double>>;

/// The ledger identity for every dataset: the charge history equals the
/// restored history followed by exactly the acknowledged charges (as a
/// multiset), and spent epsilon equals their sum to 17 significant digits.
bool CheckLedger(const Workload& workload,
                 const std::vector<gupt::DatasetBudgetSnapshot>& snapshots,
                 const Acks& acks, std::string* why);

/// Two ledgers agree exactly: totals, spent, and every charge in order.
bool SameLedgers(const std::vector<gupt::DatasetBudgetSnapshot>& a,
                 const std::vector<gupt::DatasetBudgetSnapshot>& b,
                 std::string* why);

/// The restored history as a `gupt-ledger v1` file.
std::string HistoryLedgerText(const Workload& workload);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOADS_H_
