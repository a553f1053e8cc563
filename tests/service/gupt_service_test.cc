#include "service/gupt_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "obs/metrics.h"

namespace gupt {
namespace {

Dataset Ages(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(vec::ClampScalar(rng.Gaussian(40.0, 10.0), 0.0, 150.0));
  }
  return Dataset::FromColumn(values).value();
}

QueryRequest MeanRequest(double epsilon) {
  QueryRequest request;
  request.analyst = "alice";
  request.dataset = "ages";
  request.program.name = "mean";
  request.epsilon = epsilon;
  request.range_mode = RangeMode::kTight;
  request.output_ranges = {Range{0.0, 150.0}};
  return request;
}

class GuptServiceTest : public ::testing::Test {
 protected:
  std::unique_ptr<GuptService> MakeServicePtr(double budget = 5.0,
                                              const std::string& ledger = "") {
    ServiceOptions options;
    options.ledger_path = ledger;
    auto service = std::make_unique<GuptService>(
        options, ProgramRegistry::WithStandardPrograms());
    DatasetOptions ds;
    ds.total_epsilon = budget;
    EXPECT_TRUE(service->RegisterDataset("ages", Ages(5000, 1), ds).ok());
    return service;
  }
};

TEST_F(GuptServiceTest, SubmitQueryReturnsPrivateAnswer) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  auto report = service.SubmitQuery(MeanRequest(1.0));
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->output[0], 40.0, 10.0);
  EXPECT_DOUBLE_EQ(report->epsilon_spent, 1.0);
  EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 4.0);
}

TEST_F(GuptServiceTest, ListingsExposeRegistrations) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  EXPECT_EQ(service.ListDatasets(), (std::vector<std::string>{"ages"}));
  EXPECT_GE(service.ListPrograms().size(), 13u);
}

TEST_F(GuptServiceTest, AuditLogRecordsAcceptedAndRefused) {
  auto service_ptr = MakeServicePtr(/*budget=*/1.5);
  GuptService& service = *service_ptr;
  ASSERT_TRUE(service.SubmitQuery(MeanRequest(1.0)).ok());
  // Second query exceeds the remaining 0.5.
  auto refused = service.SubmitQuery(MeanRequest(1.0));
  EXPECT_FALSE(refused.ok());
  // Unknown program.
  QueryRequest bad = MeanRequest(0.1);
  bad.program.name = "word2vec";
  EXPECT_FALSE(service.SubmitQuery(bad).ok());

  auto log = service.audit_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].id, 1u);
  EXPECT_EQ(log[0].analyst, "alice");
  EXPECT_TRUE(log[0].accepted);
  EXPECT_DOUBLE_EQ(log[0].epsilon_charged, 1.0);
  EXPECT_FALSE(log[1].accepted);
  EXPECT_NE(log[1].status.find("BudgetExhausted"), std::string::npos);
  EXPECT_FALSE(log[2].accepted);
  EXPECT_NE(log[2].status.find("NotFound"), std::string::npos);
}

TEST_F(GuptServiceTest, AnonymousAnalystLabelled) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  QueryRequest request = MeanRequest(0.5);
  request.analyst.clear();
  ASSERT_TRUE(service.SubmitQuery(request).ok());
  EXPECT_EQ(service.audit_log()[0].analyst, "<anonymous>");
}

TEST_F(GuptServiceTest, HelperModeRejectedAtServiceBoundary) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  QueryRequest request = MeanRequest(0.5);
  request.range_mode = RangeMode::kHelper;
  EXPECT_FALSE(service.SubmitQuery(request).ok());
}

TEST_F(GuptServiceTest, LooseModeWorks) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  QueryRequest request = MeanRequest(2.0);
  request.range_mode = RangeMode::kLoose;
  request.output_ranges = {Range{0.0, 300.0}};
  auto report = service.SubmitQuery(request);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->effective_ranges[0].width(), 300.0);
}

TEST_F(GuptServiceTest, ParameterizedProgramRequest) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  QueryRequest request = MeanRequest(1.0);
  request.program.name = "winsorized_mean";
  request.program.params = {{"dim", "0"}, {"trim", "0.1"}};
  EXPECT_TRUE(service.SubmitQuery(request).ok());
}

TEST_F(GuptServiceTest, LedgerSurvivesRestart) {
  std::string ledger = ::testing::TempDir() + "/gupt_service_ledger.txt";
  std::remove(ledger.c_str());
  {
    auto service_ptr = MakeServicePtr(5.0, ledger);
  GuptService& service = *service_ptr;
    ASSERT_TRUE(service.SubmitQuery(MeanRequest(3.0)).ok());
  }
  {
    // "Restart": fresh service, same dataset registration, restore ledger.
    auto service_ptr = MakeServicePtr(5.0, ledger);
  GuptService& service = *service_ptr;
    ASSERT_TRUE(service.RestoreLedger().ok());
    EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 2.0);
    // A 3.0 query no longer fits.
    EXPECT_FALSE(service.SubmitQuery(MeanRequest(3.0)).ok());
    EXPECT_TRUE(service.SubmitQuery(MeanRequest(2.0)).ok());
  }
  std::remove(ledger.c_str());
}

TEST_F(GuptServiceTest, QueryCacheServesRepeatsForFree) {
  ServiceOptions options;
  options.enable_query_cache = true;
  GuptService service(options, ProgramRegistry::WithStandardPrograms());
  DatasetOptions ds;
  ds.total_epsilon = 2.0;
  ASSERT_TRUE(service.RegisterDataset("ages", Ages(5000, 1), ds).ok());

  QueryRequest request = MeanRequest(1.5);
  auto first = service.SubmitQuery(request);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 0.5);

  // The identical query replays the cached release: same answer, no
  // charge — it would not even fit in the remaining 0.5 otherwise.
  auto second = service.SubmitQuery(request);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->output[0], first->output[0]);
  EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 0.5);

  auto log = service.audit_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[0].from_cache);
  EXPECT_TRUE(log[1].from_cache);
  EXPECT_DOUBLE_EQ(log[1].epsilon_charged, 0.0);

  // A *different* query (other epsilon) is not a cache hit.
  auto different = service.SubmitQuery(MeanRequest(0.4));
  ASSERT_TRUE(different.ok());
  EXPECT_NEAR(service.RemainingBudget("ages").value(), 0.1, 1e-9);
}

TEST_F(GuptServiceTest, CacheDisabledByDefault) {
  auto service_ptr = MakeServicePtr(5.0);
  GuptService& service = *service_ptr;
  QueryRequest request = MeanRequest(1.0);
  auto first = service.SubmitQuery(request);
  auto second = service.SubmitQuery(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Without the cache both runs charge (and draw fresh noise).
  EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 3.0);
  EXPECT_NE(first->output[0], second->output[0]);
}

TEST_F(GuptServiceTest, RestoreWithoutLedgerPathIsError) {
  auto service_ptr = MakeServicePtr();
  GuptService& service = *service_ptr;
  EXPECT_FALSE(service.RestoreLedger().ok());
  EXPECT_FALSE(service.PersistLedger().ok());
}

TEST_F(GuptServiceTest, FirstBootWithMissingLedgerFileIsFine) {
  std::string ledger = ::testing::TempDir() + "/gupt_never_written.txt";
  std::remove(ledger.c_str());
  auto service_ptr = MakeServicePtr(5.0, ledger);
  GuptService& service = *service_ptr;
  EXPECT_TRUE(service.RestoreLedger().ok());
  std::remove(ledger.c_str());
}

TEST_F(GuptServiceTest, TokenSmugglingParametersRefusedBeforeCharge) {
  // A pool worker reads the program back from a newline-delimited
  // `key=value` token, so a key "x=0\ndim" would reach it as `dim=3`
  // while the parent built and audited `dim=0`.
  ServiceOptions options;
  options.chamber_pool_workers = 1;
  GuptService service(options, ProgramRegistry::WithStandardPrograms());
  DatasetOptions ds;
  ds.total_epsilon = 5.0;
  ASSERT_TRUE(service.RegisterDataset("ages", Ages(2000, 1), ds).ok());

  QueryRequest smuggler = MeanRequest(1.0);
  smuggler.program.params = {{"dim", "0"}, {"x=0\ndim", "3"}};
  auto refused = service.SubmitQuery(smuggler);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  QueryRequest bad_value = MeanRequest(1.0);
  bad_value.program.params = {{"dim", "0\nq=1"}};
  QueryRequest bad_key = MeanRequest(1.0);
  bad_key.program.params = {{"dim=0", "0"}};
  QueryRequest bad_name = MeanRequest(1.0);
  bad_name.program.name = "mean\ndim=0";
  for (const QueryRequest& request : {bad_value, bad_key, bad_name}) {
    auto result = service.SubmitQuery(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 5.0);

  // A clean request still runs on the pool.
  QueryRequest clean = MeanRequest(1.0);
  clean.program.params = {{"dim", "0"}};
  EXPECT_TRUE(service.SubmitQuery(clean).ok());
  EXPECT_DOUBLE_EQ(service.RemainingBudget("ages").value(), 4.0);
}

// The block's first value, or NaN when the block holds a value above 0.7.
Result<ProgramFactory> NaNOnOutlier(const ProgramSpec&) {
  return MakeProgramFactory(
      "nan_on_outlier", 1, [](const Dataset& block) -> Result<Row> {
        const double* x = block.col(0);
        for (std::size_t r = 0; r < block.num_rows(); ++r) {
          if (x[r] > 0.7) return Row{std::nan("")};
        }
        return Row{x[0]};
      });
}

TEST_F(GuptServiceTest, PooledNaNBlockOutputFallsBack) {
  ProgramRegistry registry = ProgramRegistry::WithStandardPrograms();
  ASSERT_TRUE(registry.RegisterBuilder("nan_on_outlier", NaNOnOutlier).ok());
  ServiceOptions options;
  options.chamber_pool_workers = 2;
  GuptService service(options, std::move(registry));
  std::vector<double> values(2000, 0.5);
  values[1234] = 0.75;
  DatasetOptions ds;
  ds.total_epsilon = 5.0;
  ASSERT_TRUE(
      service.RegisterDataset("d", Dataset::FromColumn(values).value(), ds)
          .ok());
  obs::Counter* leases = obs::MetricsRegistry::Get().GetCounter(
      "gupt_chamber_pool_leases_total",
      "Blocks dispatched to pooled workers (one lease per block).");
  const double leases_before = leases->Value();

  QueryRequest request;
  request.dataset = "d";
  request.program.name = "nan_on_outlier";
  request.epsilon = 1.0;
  request.range_mode = RangeMode::kTight;
  request.output_ranges = {Range{0.0, 1.0}};
  auto report = service.SubmitQuery(request);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(leases->Value() - leases_before,
            static_cast<double>(report->num_blocks));
  EXPECT_EQ(report->fallback_blocks, 1u);
  ASSERT_EQ(report->output.size(), 1u);
  EXPECT_TRUE(std::isfinite(report->output[0])) << report->output[0];
}

}  // namespace
}  // namespace gupt
