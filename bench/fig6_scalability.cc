// Figure 6: wall-clock time of k-means vs the iteration count, comparing
// the non-private run against GUPT-helper and GUPT-loose.
//
// Paper shape: GUPT-helper pays the biggest fixed overhead (DP percentile
// over all n inputs), GUPT-loose a smaller one (percentile over the ~n^0.4
// block outputs); the private runs' time grows *more slowly* with the
// iteration count because each instance works on a small block, so the
// overhead amortises as computation grows.

#include <cstdio>

#include "baselines/nonprivate.h"
#include "bench_util.h"
#include "obs/metrics.h"

namespace gupt {
namespace {

/// Dumps the process-global metrics registry so the perf trajectory of
/// this figure is machine-readable run over run: per-stage durations,
/// per-block chamber latencies, thread-pool behaviour, epsilon charged.
int WriteObsJson(const char* path) {
  std::string json = obs::MetricsRegistry::Get().ExportJson();
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::printf("# metrics dump: %s\n", path);
  return 0;
}

int Run() {
  bench::PrintHeader(
      "Figure 6", "k-means completion time vs iteration count",
      "private curves start above the non-private one (range-estimation "
      "overhead, helper > loose) but grow more slowly with iterations");

  bench::LifeSciencesBench env = bench::MakeLifeSciencesBench();
  DatasetManager manager;
  DatasetOptions opts;
  opts.total_epsilon = 1e6;
  // Owner-declared loose input ranges for the helper-mode translator.
  auto empirical = env.data.EmpiricalRanges();
  std::vector<Range> loose_inputs;
  for (const Range& r : empirical) {
    loose_inputs.push_back(Range{r.lo * 2.0, r.hi * 2.0});
  }
  opts.input_ranges = loose_inputs;
  if (!manager.Register("ds1.10", env.data, opts).ok()) return 1;
  GuptRuntime runtime(&manager, GuptOptions{});

  // Helper translator: a centre coordinate for feature d lies inside that
  // feature's (tight, privately estimated) input range.
  std::size_t k = env.kmeans.k;
  std::vector<std::size_t> dims = env.cluster_dims;
  RangeTranslator translator =
      [k, dims](const std::vector<Range>& input) -> Result<std::vector<Range>> {
    std::vector<Range> out;
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t d : dims) {
        out.push_back(input[d]);
      }
    }
    return out;
  };

  // Wall time alone understates the private runs on a multicore box: the
  // block fan-out burns CPU in parallel (and, under process isolation, in
  // child processes wall clocks never see). The _cpu_s columns total the
  // coordinator thread-CPU plus child rusage from the query's resource
  // ledger, so the figure reports both the latency the analyst feels and
  // the compute the cluster pays.
  bench::PrintRow({"iterations", "non_private_s", "gupt_loose_s",
                   "loose_cpu_s", "gupt_helper_s", "helper_cpu_s"});
  for (std::size_t iterations : {20u, 80u, 100u, 200u}) {
    analytics::KMeansOptions kmeans = env.kmeans;
    kmeans.max_iterations = iterations;
    kmeans.tolerance = 0.0;

    double non_private_s = bench::TimeSeconds([&] {
      auto out = baselines::RunNonPrivate(analytics::KMeansQuery(kmeans),
                                          env.data);
      if (!out.ok()) std::exit(1);
    });

    struct GuptCost {
      double wall_s = 0;
      double cpu_s = 0;
    };
    auto run_gupt = [&](OutputRangeSpec range) {
      GuptCost cost;
      cost.wall_s = bench::TimeSeconds([&] {
        QuerySpec spec;
        spec.program = analytics::KMeansQuery(kmeans);
        spec.epsilon = 2.0;
        spec.range = std::move(range);
        auto report = runtime.Execute("ds1.10", spec);
        if (!report.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       report.status().ToString().c_str());
          std::exit(1);
        }
        cost.cpu_s = report->resources.TotalCpuSeconds();
      });
      return cost;
    };
    GuptCost loose = run_gupt(OutputRangeSpec::Loose(env.kmeans_loose_ranges));
    GuptCost helper = run_gupt(OutputRangeSpec::Helper(translator));

    bench::PrintRow({std::to_string(iterations), bench::Fmt(non_private_s),
                     bench::Fmt(loose.wall_s), bench::Fmt(loose.cpu_s),
                     bench::Fmt(helper.wall_s), bench::Fmt(helper.cpu_s)});
  }

  // Data-movement footnote: total bytes the per-block gathers copied
  // across all the private runs above (each selected cell is copied once,
  // into the block that holds it, where that block runs), plus the
  // chamber-pool lease/reset counters — zero here, since this figure runs
  // in-thread chambers, but reported so a future pool-backed run of the
  // same figure is directly comparable.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  std::printf("# partition_copied_mb %.2f  pool_leases %.0f  pool_resets "
              "%.0f\n",
              registry.GetCounter("gupt_data_partition_copied_bytes_total",
                                  "")->Value() / 1048576.0,
              registry.GetCounter("gupt_chamber_pool_leases_total", "")
                  ->Value(),
              registry.GetCounter("gupt_chamber_pool_resets_total", "")
                  ->Value());
  return WriteObsJson("BENCH_obs.json");
}

}  // namespace
}  // namespace gupt

int main() { return gupt::Run(); }
