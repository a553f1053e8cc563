// Figure 8: lifetime of the total privacy budget under different per-query
// budget policies for the average-age query.
//
// Paper shape (normalized to constant eps=1): the accuracy-goal-driven
// variable epsilon answers ~2.3x more queries; a fixed eps=0.3 answers
// ~3.3x more but misses the accuracy goal (Fig. 7 shows its accuracy CDF
// undershoots). Lifetime here is measured by actually running queries
// against a real ledger until it is exhausted.

#include "analytics/queries.h"
#include "bench_util.h"

namespace gupt {
namespace {

constexpr double kTotalBudget = 30.0;
constexpr std::size_t kBlockSize = 100;

// The amplification lifetime pair runs on its own smaller budget: the
// amplified ledger charges ~epsilon*rate per query, so a 30.0 budget
// would take thousands of full executions to exhaust. One unit of budget
// keeps the bench fast while the ratio is unchanged (both runs divide
// the same budget by their per-query charge).
constexpr double kAmplifiedBudget = 1.0;
// Bernoulli subsample rate of the amplified runs: each amplified query
// reads a 5% subsample (that mechanism change is what makes the
// epsilon' = ln(1 + rate*(e^eps - 1)) charge sound), so its noise is
// wider than the raw run's — the budget stretches ~12x in exchange for
// per-query accuracy, an honest tradeoff rather than a free discount.
constexpr double kAmplificationRate = 0.05;

int Run() {
  bench::PrintHeader(
      "Figure 8", "privacy budget lifetime under different query policies",
      "variable eps answers ~2-3x the queries of constant eps=1 while still "
      "meeting the accuracy goal; eps=0.3 answers more but misses the goal");

  double last_sampling_rate = 1.0;
  double last_epsilon_spent = 0.0;
  auto queries_until_exhaustion =
      [&](std::optional<double> epsilon, double budget,
          std::optional<double> amplification_rate) {
    synthetic::CensusAgeOptions gen;
    Dataset data = synthetic::CensusAges(gen).value();
    DatasetManager manager;
    DatasetOptions opts;
    opts.total_epsilon = budget;
    opts.aged_fraction = 0.10;
    opts.input_ranges = std::vector<Range>{{0.0, 150.0}};
    if (!manager.Register("census", std::move(data), opts).ok()) std::exit(1);
    GuptRuntime runtime(&manager, GuptOptions{});

    int answered = 0;
    for (;;) {
      QuerySpec spec;
      spec.program = analytics::MeanQuery(0);
      spec.range = OutputRangeSpec::Tight({Range{0.0, 150.0}});
      spec.block_size = kBlockSize;
      spec.amplification_rate = amplification_rate;
      if (epsilon) {
        spec.epsilon = *epsilon;
      } else {
        spec.accuracy_goal = AccuracyGoal{0.90, 0.10};
      }
      auto report = runtime.Execute("census", spec);
      if (!report.ok()) {
        if (report.status().code() == StatusCode::kBudgetExhausted) break;
        std::fprintf(stderr, "query failed: %s\n",
                     report.status().ToString().c_str());
        std::exit(1);
      }
      last_sampling_rate = report->sampling_rate.value_or(1.0);
      last_epsilon_spent = report->epsilon_spent;
      ++answered;
      if (answered > 100000) break;  // safety valve
    }
    return answered;
  };

  int n_eps1 = queries_until_exhaustion(1.0, kTotalBudget, std::nullopt);
  int n_eps03 = queries_until_exhaustion(0.3, kTotalBudget, std::nullopt);
  int n_variable =
      queries_until_exhaustion(std::nullopt, kTotalBudget, std::nullopt);

  std::printf("total budget per run: %.1f, one scheme per fresh dataset\n\n",
              kTotalBudget);
  bench::PrintRow({"scheme", "queries_answered", "normalized_lifetime"});
  bench::PrintRow({"eps_1.0", std::to_string(n_eps1), "1.00"});
  bench::PrintRow({"variable_eps", std::to_string(n_variable),
                   bench::Fmt(static_cast<double>(n_variable) / n_eps1, 2)});
  bench::PrintRow({"eps_0.3", std::to_string(n_eps03),
                   bench::Fmt(static_cast<double>(n_eps03) / n_eps1, 2)});

  // Amplification lifetime pair: eps=1 queries, one run on the full data
  // charged raw, one on Bernoulli(kAmplificationRate) subsamples charged
  // the amplified epsilon' = ln(1 + rate*(e^eps - 1)). The amplified run
  // trades per-query accuracy (fewer blocks -> wider noise) for lifetime.
  int n_raw = queries_until_exhaustion(1.0, kAmplifiedBudget, std::nullopt);
  int n_amplified =
      queries_until_exhaustion(1.0, kAmplifiedBudget, kAmplificationRate);
  const double sampling_rate = last_sampling_rate;
  const double epsilon_amplified = last_epsilon_spent;
  const double gain =
      n_raw > 0 ? static_cast<double>(n_amplified) / n_raw : 0.0;

  std::printf("\namplification pair (budget %.1f, eps=1 per query, "
              "sampling rate %.6f)\n\n", kAmplifiedBudget, sampling_rate);
  bench::PrintRow({"charging", "queries_answered", "epsilon_per_query"});
  bench::PrintRow({"raw", std::to_string(n_raw), "1.000000"});
  bench::PrintRow({"amplified", std::to_string(n_amplified),
                   bench::Fmt(epsilon_amplified, 6)});
  std::printf("\namplified answers %.1fx the queries of raw charging\n", gain);

  std::FILE* out = std::fopen("BENCH_amplification.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_amplification.json\n");
    return 1;
  }
  // `amplified_over_raw_x` deliberately avoids the `_s`/`_ratio` suffixes:
  // bench_runner --compare treats those as higher-is-worse, and this gain
  // is higher-is-better.
  std::fprintf(out,
               "{\n"
               "  \"queries_raw\": %d,\n"
               "  \"queries_amplified\": %d,\n"
               "  \"amplified_over_raw_x\": %.6f,\n"
               "  \"sampling_rate\": %.9f,\n"
               "  \"epsilon_per_query_raw\": 1.0,\n"
               "  \"epsilon_per_query_amplified\": %.12f\n"
               "}\n",
               n_raw, n_amplified, gain, sampling_rate, epsilon_amplified);
  std::fclose(out);
  std::printf("# wrote BENCH_amplification.json\n");

  // The acceptance bar: amplified charging must stretch the same budget at
  // least 5x further than raw charging on this workload.
  return gain >= 5.0 ? 0 : 1;
}

}  // namespace
}  // namespace gupt

int main() { return gupt::Run(); }
