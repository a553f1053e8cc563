// Micro-benchmarks of the DP substrate: the per-operation costs that
// determine the runtime's fixed overheads (Figure 6's offsets are made of
// exactly these pieces), plus the per-block cost of the analysis programs
// a pooled ML query runs once per block, the census statistics' per-block
// cost, and the restore of a durable ledger.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytics/kmeans.h"
#include "analytics/linear_regression.h"
#include "analytics/pca.h"
#include "analytics/queries.h"
#include "common/rng.h"
#include "data/budget_store.h"
#include "data/dataset_manager.h"
#include "data/partitioner.h"
#include "data/synthetic.h"
#include "dp/accountant.h"
#include "dp/laplace.h"
#include "dp/percentile.h"

namespace gupt {
namespace {

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Laplace(1.0));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_LaplaceMechanism(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::LaplaceMechanism(1.0, 1.0, 0.5, &rng));
  }
}
BENCHMARK(BM_LaplaceMechanism);

void BM_PrivatePercentile(benchmark::State& state) {
  Rng data_rng(3);
  std::vector<double> values(static_cast<std::size_t>(state.range(0)));
  for (double& v : values) v = data_rng.UniformDouble(0.0, 100.0);
  dp::PercentileOptions opts;
  opts.lo = 0.0;
  opts.hi = 100.0;
  opts.epsilon = 1.0;
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::PrivatePercentile(values, opts, &rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrivatePercentile)->Range(1 << 8, 1 << 15)->Complexity();

void BM_AccountantCharge(benchmark::State& state) {
  dp::PrivacyAccountant accountant(1e18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accountant.Charge(1e-6, "bench"));
  }
}
BENCHMARK(BM_AccountantCharge);

// An n-row, one-column dataset for the partition benchmarks, which time
// the production entry points: permutation, deal and gather.
Dataset PartitionInput(std::size_t n) {
  return Dataset::FromColumn(std::vector<double>(n, 1.0)).value();
}

void BM_PartitionDisjoint(benchmark::State& state) {
  Rng rng(5);
  auto n = static_cast<std::size_t>(state.range(0));
  Dataset data = PartitionInput(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PartitionDisjointView(data, DefaultNumBlocks(n), &rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionDisjoint)->Range(1 << 10, 1 << 16)->Complexity();

void BM_PartitionResampled(benchmark::State& state) {
  Rng rng(6);
  auto n = static_cast<std::size_t>(state.range(0));
  Dataset data = PartitionInput(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionResampledView(data, n / 16, 4, &rng));
  }
}
BENCHMARK(BM_PartitionResampled)->Range(1 << 10, 1 << 16);

// The Fisher-Yates permutation the partitioner draws, at the row counts of
// the life-sciences (26,733) and census (32,561) tables.
void BM_PermutationInto(benchmark::State& state) {
  Rng rng(8);
  std::vector<std::size_t> perm(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.PermutationInto(perm.size(), perm.data());
    benchmark::DoNotOptimize(perm.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PermutationInto)->Arg(26733)->Arg(32561);

// The census ages as the partitioner cuts them into their default 64
// blocks of 508-509 rows. Each iteration runs the next block: timing one
// block over and over lets the branch predictor learn its sort.
BlockSet CensusBlocks() {
  Dataset data = synthetic::CensusAges({}).value();
  Rng rng(9);
  return PartitionDisjointView(data, DefaultNumBlocks(data.num_rows()), &rng)
      .value();
}

void RunOverBlocks(benchmark::State& state, const ProgramFactory& factory) {
  const BlockSet blocks = CensusBlocks();
  std::vector<Dataset> views;
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    views.push_back(blocks.block(b));
  }
  auto program = factory();
  std::size_t b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(program->Run(views[b]));
    b = b + 1 == views.size() ? 0 : b + 1;
  }
}

void BM_QuantileBlock(benchmark::State& state) {
  RunOverBlocks(state, analytics::QuantileQuery(0, 0.9));
}
BENCHMARK(BM_QuantileBlock);

void BM_TrimmedMeanBlock(benchmark::State& state) {
  RunOverBlocks(state, analytics::TrimmedMeanQuery(0, 0.1));
}
BENCHMARK(BM_TrimmedMeanBlock);

// Two datasets registered fresh, ready to restore a ledger into.
void RegisterCensusPair(DatasetManager* manager) {
  DatasetOptions options;
  options.total_epsilon = 1048576.0;
  Dataset tiny = Dataset::FromColumn({1.0}).value();
  (void)manager->Register("census_a", tiny, options);
  (void)manager->Register("census_b", tiny, options);
}

// LoadBudgets of a 32k-charge snapshot (16k charges per dataset, four
// labels), the history a durable service restores at start-up. Setting up
// and destroying the managers is not timed.
void BM_LedgerRestore(benchmark::State& state) {
  const char* labels[] = {"mean [tight]", "quantile [tight]",
                          "histogram [tight]", "trimmed_mean [tight]"};
  const double epsilons[] = {0.5, 1.0, 2.0};
  DatasetManager history;
  RegisterCensusPair(&history);
  Rng rng(10);
  for (const char* name : {"census_a", "census_b"}) {
    dp::PrivacyAccountant& accountant =
        history.Get(name).value()->accountant();
    for (int i = 0; i < 16000; ++i) {
      (void)accountant.Charge(epsilons[rng.UniformUint64(3)],
                              labels[rng.UniformUint64(4)]);
    }
  }
  const std::string path =
      "/tmp/gupt_bench_ledger_" + std::to_string(::getpid()) + ".txt";
  std::FILE* file = std::fopen(path.c_str(), "w");
  const std::string text = SerializeBudgets(history);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  for (auto _ : state) {
    state.PauseTiming();
    auto manager = std::make_unique<DatasetManager>();
    RegisterCensusPair(manager.get());
    state.ResumeTiming();
    benchmark::DoNotOptimize(LoadBudgets(manager.get(), path));
    state.PauseTiming();
    manager.reset();
    state.ResumeTiming();
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_LedgerRestore)->Unit(benchmark::kMillisecond);

// One 450-row block of the life-sciences table, as the partitioner cuts it
// for a service query over all 26,733 rows (beta = n^0.6).
Dataset LifeSciencesBlock() {
  Dataset data = synthetic::LifeSciences({}).value();
  Rng rng(7);
  return PartitionResampledView(data, 450, 1, &rng).value().block(0);
}

// The three block programs with the service benchmark's parameters:
// k-means k=4 on dims {0,1}, PCA on dims 0-9, OLS of dim 9 on dims 0-8.
void BM_KMeansBlock(benchmark::State& state) {
  Dataset block = LifeSciencesBlock();
  analytics::KMeansOptions options;
  options.k = 4;
  options.feature_dims = {0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytics::RunKMeans(block, options));
  }
}
BENCHMARK(BM_KMeansBlock);

void BM_PcaBlock(benchmark::State& state) {
  Dataset block = LifeSciencesBlock();
  analytics::PcaOptions options;
  options.feature_dims = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytics::ComputeTopComponent(block, options));
  }
}
BENCHMARK(BM_PcaBlock);

void BM_OlsBlock(benchmark::State& state) {
  Dataset block = LifeSciencesBlock();
  analytics::LinearRegressionOptions options;
  options.feature_dims = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  options.target_dim = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytics::FitLinearRegression(block, options));
  }
}
BENCHMARK(BM_OlsBlock);

}  // namespace
}  // namespace gupt

BENCHMARK_MAIN();
