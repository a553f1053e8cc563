#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <sstream>

#include "data/synthetic.h"

namespace svcbench {
namespace {

using gupt::Range;

// Budget large enough that no run can exhaust it (a refusal would be a
// failed operation, not a measurement).
constexpr double kTotalEpsilon = 1048576.0;

// Restored charges per durable_ledger dataset. At least ~20x the charges
// one run adds, so the per-query ledger rewrite costs the same from the
// first timed query to the last.
constexpr std::size_t kHistoryPerDataset = 16000;

// Epsilon choices. Dyadic, so ledger sums are exact in any order and the
// 17-digit ledger identity does not depend on completion order.
const std::vector<double> kEpsilons = {0.5, 1.0, 2.0};

// The datasets are fixed replicas, as the paper's are; the seed drives
// what varies between runs of a deployment: the analysts' request
// streams, the restored charge history, and the runtime's noise and
// partition randomness. (Seeded data would make per-query cost, and so
// every metric, depend on which dataset a seed happened to draw.)
//
// Mixes the run seed with a per-purpose constant, so each input draws
// from its own stream.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + purpose;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

QueryTemplate Template(std::string name,
                       std::map<std::string, std::string> params,
                       std::vector<Range> ranges, bool mean_type = false) {
  QueryTemplate t;
  t.program.name = std::move(name);
  t.program.params = std::move(params);
  t.ranges = std::move(ranges);
  t.mean_type = mean_type;
  return t;
}

double ColumnMean(const gupt::Dataset& data, std::size_t dim) {
  const double* col = data.col(dim);
  double sum = 0.0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) sum += col[i];
  return sum / static_cast<double>(data.num_rows());
}

double ColumnTrimmedMean(const gupt::Dataset& data, std::size_t dim,
                         double trim) {
  const double* col = data.col(dim);
  std::vector<double> values(col, col + data.num_rows());
  std::sort(values.begin(), values.end());
  const std::size_t cut =
      static_cast<std::size_t>(trim * static_cast<double>(values.size()));
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

gupt::ServiceOptions BaseOptions(std::uint64_t seed) {
  gupt::ServiceOptions options;
  options.runtime.seed = Derive(seed, 1);
  options.enable_query_cache = false;
  // Bounded like a long-running deployment's, so memory does not grow
  // with the number of queries a run completes.
  options.audit_log_capacity = 1024;
  return options;
}

gupt::Result<Workload> PooledMl(std::uint64_t seed) {
  Workload w;
  w.name = "pooled_ml";
  w.options = BaseOptions(seed);
  w.options.chamber_pool_workers = 3;
  w.options.runtime.num_workers = 3;
  w.options.admission_workers = 2;
  w.warmup_queries = 96;

  GUPT_ASSIGN_OR_RETURN(gupt::Dataset data,
                        gupt::synthetic::LifeSciences({}));
  DatasetInput ds;
  ds.name = "life_sciences";
  ds.data = std::move(data);
  ds.options.total_epsilon = kTotalEpsilon;
  w.datasets.push_back(std::move(ds));

  // k-means on the first two principal components: centres sorted by the
  // first coordinate, which the clusters spread along.
  std::vector<Range> centres;
  for (int j = 0; j < 4; ++j) {
    centres.push_back({-12.0, 12.0});
    centres.push_back({-6.0, 6.0});
  }
  w.templates.push_back(
      Template("kmeans", {{"k", "4"}, {"dims", "0,1"}}, centres));
  w.templates.push_back(
      Template("pca", {{"dims", "0,1,2,3,4,5,6,7,8,9"}},
               std::vector<Range>(10, Range{-1.0, 1.0})));
  w.templates.push_back(Template(
      "linear_regression", {{"dims", "0,1,2,3,4,5,6,7,8"}, {"target", "9"}},
      std::vector<Range>(10, Range{-4.0, 4.0})));
  return w;
}

gupt::Result<Workload> DurableLedger(std::uint64_t seed) {
  Workload w;
  w.name = "durable_ledger";
  w.options = BaseOptions(seed);
  w.options.runtime.num_workers = 0;
  w.options.admission_workers = 2;
  w.options.introspect_port = 0;
  w.durable = true;
  w.warmup_queries = 48;

  const Range ages{17.0, 90.0};
  w.templates.push_back(Template("mean", {{"dim", "0"}}, {ages}, true));
  w.templates.push_back(
      Template("quantile", {{"dim", "0"}, {"q", "0.9"}}, {ages}));
  w.templates.push_back(Template(
      "histogram", {{"dim", "0"}, {"bins", "8"}, {"lo", "17"}, {"hi", "90"}},
      std::vector<Range>(8, Range{0.0, 1.0})));
  w.templates.push_back(
      Template("trimmed_mean", {{"dim", "0"}, {"trim", "0.1"}}, {ages}, true));
  const char* labels[] = {"mean [tight]", "quantile [tight]",
                          "histogram [tight]", "trimmed_mean [tight]"};

  std::mt19937_64 history_rng(Derive(seed, 3));
  for (int replica = 0; replica < 2; ++replica) {
    gupt::synthetic::CensusAgeOptions data_options;
    data_options.seed += static_cast<std::uint64_t>(replica);
    GUPT_ASSIGN_OR_RETURN(gupt::Dataset data,
                          gupt::synthetic::CensusAges(data_options));
    DatasetInput ds;
    ds.name = replica == 0 ? "census_a" : "census_b";
    ds.truth[0] = ColumnMean(data, 0);
    ds.truth[3] = ColumnTrimmedMean(data, 0, 0.1);
    ds.data = std::move(data);
    ds.options.total_epsilon = kTotalEpsilon;
    for (std::size_t i = 0; i < kHistoryPerDataset; ++i) {
      const std::size_t t = history_rng() % 4;
      ds.history.push_back(
          {labels[t], kEpsilons[history_rng() % kEpsilons.size()]});
    }
    w.datasets.push_back(std::move(ds));
  }
  return w;
}

gupt::Result<Workload> InthreadFanout(std::uint64_t seed) {
  Workload w;
  w.name = "inthread_fanout";
  w.options = BaseOptions(seed);
  w.options.runtime.num_workers = 3;
  w.options.admission_workers = 4;
  w.warmup_queries = 480;

  // x ~ N(10, 2), y = 0.5 x + N(0, 1.5): cov(x, y) = 2.
  const std::size_t rows = 50000;
  std::mt19937_64 rng(20120520);
  auto gaussian = [&rng]() {
    // Box-Muller on two uniforms in (0, 1].
    const double u1 = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  };
  std::vector<std::vector<double>> columns(2, std::vector<double>(rows));
  for (std::size_t i = 0; i < rows; ++i) {
    columns[0][i] = 10.0 + 2.0 * gaussian();
    columns[1][i] = 0.5 * columns[0][i] + 1.5 * gaussian();
  }
  GUPT_ASSIGN_OR_RETURN(gupt::Dataset data,
                        gupt::Dataset::FromColumns(std::move(columns)));
  DatasetInput ds;
  ds.name = "gaussian";
  ds.truth[0] = ColumnMean(data, 0);
  ds.data = std::move(data);
  ds.options.total_epsilon = kTotalEpsilon;
  w.datasets.push_back(std::move(ds));

  w.templates.push_back(
      Template("mean", {{"dim", "0"}}, {Range{0.0, 20.0}}, true));
  w.templates.push_back(
      Template("variance", {{"dim", "0"}}, {Range{0.0, 16.0}}));
  w.templates.push_back(Template("median", {{"dim", "0"}}, {Range{0.0, 20.0}}));
  w.templates.push_back(Template(
      "covariance", {{"dim_a", "0"}, {"dim_b", "1"}}, {Range{-8.0, 8.0}}));
  return w;
}

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"pooled_ml", "durable_ledger", "inthread_fanout"};
}

gupt::Result<Workload> MakeWorkload(const std::string& name,
                                    std::uint64_t seed) {
  if (name == "pooled_ml") return PooledMl(seed);
  if (name == "durable_ledger") return DurableLedger(seed);
  if (name == "inthread_fanout") return InthreadFanout(seed);
  return gupt::Status::InvalidArgument("unknown workload: " + name);
}

RequestStream::RequestStream(const Workload& workload, std::uint64_t seed,
                             std::size_t analyst)
    : workload_(&workload),
      analyst_("analyst-" + std::to_string(analyst)),
      rng_(Derive(seed, 100 + analyst)) {}

Query RequestStream::Next() {
  Query query;
  query.template_index = rng_() % workload_->templates.size();
  query.dataset_index = rng_() % workload_->datasets.size();
  const QueryTemplate& t = workload_->templates[query.template_index];
  query.epsilon = kEpsilons[rng_() % kEpsilons.size()];
  gupt::QueryRequest& r = query.request;
  r.analyst = analyst_;
  r.dataset = workload_->datasets[query.dataset_index].name;
  r.program = t.program;
  r.epsilon = query.epsilon;
  r.range_mode = gupt::RangeMode::kTight;
  r.output_ranges = t.ranges;
  return query;
}

bool CheckAnswer(const Workload& workload, const Query& query,
                 const gupt::QueryReport& report, std::string* why) {
  const QueryTemplate& t = workload.templates[query.template_index];
  const DatasetInput& ds = workload.datasets[query.dataset_index];
  const std::size_t arity = t.ranges.size();
  std::ostringstream out;
  out << t.program.name << " on " << ds.name << ": ";
  if (report.output.size() != arity) {
    out << "arity " << report.output.size() << " != " << arity;
    *why = out.str();
    return false;
  }
  if (report.epsilon_spent != query.epsilon) {
    out << "charged " << Exact(report.epsilon_spent) << " for a request of "
        << Exact(query.epsilon);
    *why = out.str();
    return false;
  }
  if (report.num_blocks < 2 || report.num_blocks > ds.data.num_rows()) {
    out << "implausible block count " << report.num_blocks;
    *why = out.str();
    return false;
  }
  // Tight mode under Theorem 1 splits epsilon evenly over the output
  // dimensions; the Laplace scale of dimension d is width_d / (l * eps_d),
  // and P(|Lap(b)| > b ln 1e9) = 1e-9.
  const double eps_per_dim = query.epsilon / static_cast<double>(arity);
  const double tail_factor = std::log(1e9) * (1.0 + 1e-9);
  for (std::size_t d = 0; d < arity; ++d) {
    const double value = report.output[d];
    const Range& range = t.ranges[d];
    const double tail = range.width() /
                        (static_cast<double>(report.num_blocks) * eps_per_dim) *
                        tail_factor;
    if (!std::isfinite(value)) {
      out << "dimension " << d << " is not finite";
      *why = out.str();
      return false;
    }
    if (value < range.lo - tail || value > range.hi + tail) {
      out << "dimension " << d << " = " << value << " outside [" << range.lo
          << ", " << range.hi << "] +- " << tail;
      *why = out.str();
      return false;
    }
    auto truth = ds.truth.find(query.template_index);
    if (t.mean_type && truth != ds.truth.end() &&
        std::fabs(value - truth->second) > tail) {
      out << "mean-type answer " << value << " further than " << tail
          << " from the non-private " << truth->second;
      *why = out.str();
      return false;
    }
  }
  return true;
}

bool CheckLedger(const Workload& workload,
                 const std::vector<gupt::DatasetBudgetSnapshot>& snapshots,
                 const Acks& acks, std::string* why) {
  for (std::size_t i = 0; i < workload.datasets.size(); ++i) {
    const DatasetInput& ds = workload.datasets[i];
    auto it = std::find_if(snapshots.begin(), snapshots.end(),
                           [&](const gupt::DatasetBudgetSnapshot& s) {
                             return s.dataset == ds.name;
                           });
    if (it == snapshots.end()) {
      *why = "no ledger for " + ds.name;
      return false;
    }
    const std::vector<gupt::dp::BudgetCharge>& charges = it->budget.charges;
    const std::size_t h = ds.history.size();
    if (charges.size() != h + acks[i].size()) {
      *why = ds.name + ": ledger holds " + std::to_string(charges.size()) +
             " charges, expected " + std::to_string(h) + " restored + " +
             std::to_string(acks[i].size()) + " acknowledged";
      return false;
    }
    double expected = 0.0;
    for (std::size_t k = 0; k < h; ++k) {
      if (charges[k].epsilon != ds.history[k].epsilon ||
          charges[k].label != ds.history[k].label) {
        *why = ds.name + ": restored charge " + std::to_string(k) +
               " differs from the history written";
        return false;
      }
      expected += ds.history[k].epsilon;
    }
    std::vector<double> charged;
    for (std::size_t k = h; k < charges.size(); ++k) {
      charged.push_back(charges[k].epsilon);
    }
    std::vector<double> acked = acks[i];
    std::sort(charged.begin(), charged.end());
    std::sort(acked.begin(), acked.end());
    if (charged != acked) {
      *why = ds.name + ": charges after the history differ from the "
             "acknowledged ones";
      return false;
    }
    for (double e : acks[i]) expected += e;
    if (Exact(it->budget.spent_epsilon) != Exact(expected)) {
      *why = ds.name + ": spent " + Exact(it->budget.spent_epsilon) +
             " != restored + acknowledged " + Exact(expected);
      return false;
    }
  }
  return true;
}

bool SameLedgers(const std::vector<gupt::DatasetBudgetSnapshot>& a,
                 const std::vector<gupt::DatasetBudgetSnapshot>& b,
                 std::string* why) {
  if (a.size() != b.size()) {
    *why = "dataset count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const gupt::dp::AccountantSnapshot& x = a[i].budget;
    const gupt::dp::AccountantSnapshot& y = b[i].budget;
    if (a[i].dataset != b[i].dataset ||
        Exact(x.total_epsilon) != Exact(y.total_epsilon) ||
        Exact(x.spent_epsilon) != Exact(y.spent_epsilon) ||
        x.charges.size() != y.charges.size()) {
      *why = a[i].dataset + ": reloaded ledger differs (spent " +
             Exact(x.spent_epsilon) + " vs " + Exact(y.spent_epsilon) +
             ", charges " + std::to_string(x.charges.size()) + " vs " +
             std::to_string(y.charges.size()) + ")";
      return false;
    }
    for (std::size_t k = 0; k < x.charges.size(); ++k) {
      if (x.charges[k].epsilon != y.charges[k].epsilon ||
          x.charges[k].label != y.charges[k].label) {
        *why = a[i].dataset + ": reloaded charge " + std::to_string(k) +
               " differs";
        return false;
      }
    }
  }
  return true;
}

std::string HistoryLedgerText(const Workload& workload) {
  std::string text = "gupt-ledger v1\n";
  for (const DatasetInput& ds : workload.datasets) {
    text += "dataset " + ds.name + " total " + Exact(ds.options.total_epsilon) +
            "\n";
    for (const gupt::dp::BudgetCharge& c : ds.history) {
      text += "charge " + Exact(c.epsilon) + " " + c.label + "\n";
    }
  }
  return text;
}

}  // namespace svcbench
