// §6.1 micro-benchmark: overhead of the isolated execution chamber.
//
// The paper measures the AppArmor sandbox by running k-means 6,000 times
// and reports a 1.26% slowdown. Here the google-benchmark harness compares
// the same k-means block computation run bare against run inside an
// execution chamber (fresh instance + private block copy + MAC-policed
// services), which is this reproduction's sandbox equivalent.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

#include "analytics/kmeans.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "exec/chamber.h"
#include "exec/chamber_pool.h"
#include "exec/process_chamber.h"
#include "obs/metrics.h"

namespace gupt {
namespace {

Dataset MakeBlock(std::size_t rows) {
  Rng rng(99);
  std::vector<Row> out;
  out.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double c = rng.Bernoulli(0.5) ? 0.0 : 6.0;
    out.push_back({c + rng.Gaussian(), c + rng.Gaussian()});
  }
  return Dataset::Create(std::move(out)).value();
}

analytics::KMeansOptions BlockKMeans() {
  analytics::KMeansOptions opts;
  opts.k = 2;
  opts.feature_dims = {0, 1};
  opts.max_iterations = 10;
  return opts;
}

void BM_KMeansBare(benchmark::State& state) {
  Dataset block = MakeBlock(static_cast<std::size_t>(state.range(0)));
  ProgramFactory factory = analytics::KMeansQuery(BlockKMeans());
  for (auto _ : state) {
    auto program = factory();
    auto out = program->Run(block);
    if (!out.ok()) state.SkipWithError("k-means failed");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_KMeansBare)->Arg(200)->Arg(1000);

void BM_KMeansInChamber(benchmark::State& state) {
  Dataset block = MakeBlock(static_cast<std::size_t>(state.range(0)));
  ProgramFactory factory = analytics::KMeansQuery(BlockKMeans());
  ExecutionChamber chamber{ChamberPolicy{}};  // no deadline: measure MAC cost
  Row fallback(4, 0.0);
  for (auto _ : state) {
    auto run = chamber.Execute(factory, block, fallback);
    if (!run.ok() || run->used_fallback) state.SkipWithError("chamber failed");
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_KMeansInChamber)->Arg(200)->Arg(1000);

// The fork-based backend: the upper bound on isolation (own address
// space, real SIGKILL) and on overhead (~a fork + pipe per block) — the
// closest analogue to the paper's AppArmor-confined processes. Wall time
// alone flatters this backend on a loaded machine, so the per-block child
// CPU captured from wait4() rusage is reported alongside: the gap between
// block_cpu_s and the wall rate is the fork/pipe/schedule tax.
void BM_KMeansInSubprocess(benchmark::State& state) {
  Dataset block = MakeBlock(static_cast<std::size_t>(state.range(0)));
  ProgramFactory factory = analytics::KMeansQuery(BlockKMeans());
  ProcessChamber chamber{ChamberPolicy{}};
  Row fallback(4, 0.0);
  std::int64_t child_cpu_ns = 0;
  std::int64_t child_max_rss_kb = 0;
  for (auto _ : state) {
    auto run = chamber.Execute(factory, block, fallback);
    if (!run.ok() || run->used_fallback) state.SkipWithError("chamber failed");
    child_cpu_ns += run->child_user_cpu_ns + run->child_sys_cpu_ns;
    child_max_rss_kb = std::max(child_max_rss_kb, run->child_max_rss_kb);
    benchmark::DoNotOptimize(run);
  }
  state.counters["block_cpu_s"] = benchmark::Counter(
      static_cast<double>(child_cpu_ns) / 1e9, benchmark::Counter::kAvgIterations);
  state.counters["block_max_rss_kb"] =
      benchmark::Counter(static_cast<double>(child_max_rss_kb));
}
BENCHMARK(BM_KMeansInSubprocess)->Arg(200)->Arg(1000);

// The pre-warmed pool backend: same OS-level isolation as the subprocess
// path but the fork is paid once, not per block — each iteration is one
// lease (gather into the worker's segment, run, reset). The lease/reset
// counters confirm every iteration reused a warm worker (respawns stay 0
// on a healthy run).
void BM_KMeansInPooledChamber(benchmark::State& state) {
  BlockSet blocks;  // one block: every row, in order
  blocks.source = MakeBlock(static_cast<std::size_t>(state.range(0)));
  blocks.rows.resize(blocks.source.num_rows());
  std::iota(blocks.rows.begin(), blocks.rows.end(), std::size_t{0});
  blocks.slices = {BlockSlice{0, blocks.source.num_rows()}};
  ChamberPool pool{ChamberPolicy{}, 1};
  pool.SetProgramResolver(
      [](const std::string& token) -> Result<ProgramFactory> {
        if (token != "kmeans") {
          return Status::InvalidArgument("unknown token: " + token);
        }
        return analytics::KMeansQuery(BlockKMeans());
      });
  if (!pool.Start().ok()) {
    state.SkipWithError("pool failed to start");
    return;
  }
  Row fallback(4, 0.0);
  ChamberPoolStats before = pool.Stats();
  for (auto _ : state) {
    auto run = pool.Execute("kmeans", blocks, 0, fallback);
    if (!run.ok() || run->used_fallback) state.SkipWithError("lease failed");
    benchmark::DoNotOptimize(run);
  }
  ChamberPoolStats after = pool.Stats();
  state.counters["pool_leases"] =
      benchmark::Counter(static_cast<double>(after.leases - before.leases));
  state.counters["pool_resets"] =
      benchmark::Counter(static_cast<double>(after.resets - before.resets));
  state.counters["pool_respawns"] = benchmark::Counter(
      static_cast<double>(after.respawns - before.respawns));
  state.counters["shipped_kb_per_lease"] = benchmark::Counter(
      static_cast<double>(after.shipped_bytes - before.shipped_bytes) /
      1024.0 / static_cast<double>(after.leases - before.leases));
}
BENCHMARK(BM_KMeansInPooledChamber)->Arg(200)->Arg(1000);

// Cost of standing up executable blocks: the partition's permutation and
// layout, then one gather per block into a store of its own. The
// copied_mb_per_iter counter is the partitioner's own
// gupt_data_partition_copied_bytes_total delta — each cell moves exactly
// once.
void BM_PartitionColumnarGather(benchmark::State& state) {
  Dataset data = MakeBlock(static_cast<std::size_t>(state.range(0)));
  obs::Counter* copied = obs::MetricsRegistry::Get().GetCounter(
      "gupt_data_partition_copied_bytes_total", "");
  const double before = copied->Value();
  Rng rng(1234);
  for (auto _ : state) {
    auto set = PartitionDisjointView(data, /*num_blocks=*/16, &rng);
    if (!set.ok()) state.SkipWithError("partition failed");
    for (std::size_t b = 0; set.ok() && b < set->num_blocks(); ++b) {
      benchmark::DoNotOptimize(set->block(b));
    }
  }
  state.counters["copied_mb_per_iter"] = benchmark::Counter(
      (copied->Value() - before) / 1048576.0,
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PartitionColumnarGather)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace gupt

BENCHMARK_MAIN();
