// Figure 3: prediction accuracy of logistic regression on the life
// sciences dataset as a function of the privacy budget.
//
// Paper series: GUPT-tight accuracy over epsilon in [2, 10] landing at
// 75-80%, against a 94% non-private baseline; the paper attributes most of
// the gap to block-level training (a non-private run on one n^0.6-row
// block scores ~82%).

#include "analytics/logistic_regression.h"
#include "baselines/nonprivate.h"
#include "bench_util.h"
#include "common/rng.h"
#include "data/partitioner.h"

namespace gupt {
namespace {

int Run() {
  bench::PrintHeader(
      "Figure 3", "Logistic regression accuracy vs privacy budget (GUPT-tight)",
      "private accuracy well below the ~94% baseline but far above chance, "
      "roughly flat-to-rising in epsilon; block-level accuracy explains most "
      "of the gap");

  bench::LifeSciencesBench env = bench::MakeLifeSciencesBench();
  DatasetManager manager;
  DatasetOptions opts;
  opts.total_epsilon = 1e6;
  if (!manager.Register("ds1.10", env.data, opts).ok()) return 1;
  GuptRuntime runtime(&manager, GuptOptions{});

  // The paper's diagnostic: train non-privately on a single default-size
  // block (n^0.6 rows) to isolate the estimation-error component.
  std::size_t block_size =
      env.data.num_rows() / DefaultNumBlocks(env.data.num_rows());
  Rng rng(1);
  Dataset one_block =
      PartitionDisjointView(env.data, env.data.num_rows() / block_size, &rng)
          ->block(0);
  auto block_model =
      analytics::TrainLogisticRegression(one_block, env.logreg).value();
  double block_accuracy =
      analytics::ClassificationAccuracy(env.data, block_model, env.logreg)
          .value();

  std::printf("non-private baseline accuracy : %s\n",
              bench::Fmt(env.baseline_accuracy).c_str());
  std::printf("single-block (n^0.6) accuracy : %s\n\n",
              bench::Fmt(block_accuracy).c_str());

  bench::PrintRow({"epsilon", "gupt_tight_acc", "baseline_acc"});
  const int kTrials = 5;
  for (double epsilon : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    double accuracy_sum = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      QuerySpec spec;
      spec.program = analytics::LogisticRegressionQuery(env.logreg);
      spec.epsilon = epsilon;
      spec.range = OutputRangeSpec::Tight(env.logreg_weight_ranges);
      auto report = runtime.Execute("ds1.10", spec);
      if (!report.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      analytics::LogisticModel model;
      model.weights = report->output;
      accuracy_sum +=
          analytics::ClassificationAccuracy(env.data, model, env.logreg)
              .value();
    }
    bench::PrintRow({bench::Fmt(epsilon, 1), bench::Fmt(accuracy_sum / kTrials),
                     bench::Fmt(env.baseline_accuracy)});
  }
  return 0;
}

}  // namespace
}  // namespace gupt

int main() { return gupt::Run(); }
