// Micro-benchmarks of the DP substrate: the per-operation costs that
// determine the runtime's fixed overheads (Figure 6's offsets are made of
// exactly these pieces), plus the per-block cost of the analysis programs
// a pooled ML query runs once per block.

#include <benchmark/benchmark.h>

#include <vector>

#include "analytics/kmeans.h"
#include "analytics/linear_regression.h"
#include "analytics/pca.h"
#include "common/rng.h"
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
