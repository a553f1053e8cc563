// Fault matrix for amplification-by-sampling charging (ctest labels
// `faults` + `amplify`; see docs/amplification.md and docs/testing.md).
//
// The headline run pushes 1000 amplified queries through the async
// admission queue while three failpoints fire concurrently: every 4th
// forked chamber child crashes (exec.process_chamber.child), every 10th
// amplified admission is killed immediately before the ledger debit
// (core.amplify.charge), and every 9th ledger persist fails
// (data.budget_store.save). Every future must resolve, the verdict
// counts are EXACT (failpoint verdicts are allocated under one lock, so
// worker interleaving cannot change them), and /budgetz must equal the
// hand-computed amplified ledger to the last bit — a charge-site fire
// leaves the ledger untouched, a crash costs only fallback substitution,
// and a persist failure keeps the irrevocable in-memory charge.
//
// The companion tests pin the pre-admission contract one site at a time:
// core.amplify.{calibrate,charge} fires charge nothing and are evaluated
// only when amplification is on, and budget_store save/load faults never
// corrupt what a restarted service restores.

#include "service/gupt_service.h"

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dp/amplification.h"
#include "obs/introspect/http_client.h"
#include "testing/failpoints/failpoints.h"
#include "../obs/minijson.h"

namespace gupt {
namespace {

using ::gupt::obs::introspect::HttpGet;
using ::gupt::obs::introspect::HttpGetResult;
using ::gupt::testjson::JsonValue;
using ::gupt::testjson::ParseJson;
using failpoints::Action;
using failpoints::CompiledIn;
using failpoints::Config;
using failpoints::ScopedFailpoint;

constexpr std::size_t kRows = 512;
constexpr double kRate = 0.25;  // Bernoulli subsample: n_mech = 128 rows
constexpr std::size_t kBlockSize = 32;  // 4 blocks over the subsample
constexpr double kEpsilon = 0.5;

Dataset Ages(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(vec::ClampScalar(rng.Gaussian(40.0, 10.0), 0.0, 150.0));
  }
  return Dataset::FromColumn(values).value();
}

QueryRequest AmplifiedMeanRequest() {
  QueryRequest request;
  request.analyst = "alice";
  request.dataset = "ages";
  request.program.name = "mean";
  request.epsilon = kEpsilon;
  request.range_mode = RangeMode::kTight;
  request.output_ranges = {Range{0.0, 150.0}};
  request.block_size = kBlockSize;
  request.amplification_rate = kRate;
  return request;
}

std::unique_ptr<GuptService> MakeService(ServiceOptions options,
                                         double budget) {
  auto service = std::make_unique<GuptService>(
      std::move(options), ProgramRegistry::WithStandardPrograms());
  DatasetOptions ds;
  ds.total_epsilon = budget;
  EXPECT_TRUE(service->RegisterDataset("ages", Ages(kRows, 1), ds).ok());
  return service;
}

double AmplifiedCharge() {
  return dp::AmplifiedEpsilon(kEpsilon, kRate).value();
}

class AmplificationFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompiledIn()) {
      GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
    }
    failpoints::DisarmAll();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(AmplificationFaultTest,
       ThousandQueriesUnderCrashChargeAndPersistFaults) {
  Config crash;
  crash.every_nth = 4;
  crash.action = Action::kCrash;
  ScopedFailpoint fp_crash("exec.process_chamber.child", crash);

  Config charge;
  charge.every_nth = 10;
  ScopedFailpoint fp_charge("core.amplify.charge", charge);

  Config save;
  save.every_nth = 9;
  ScopedFailpoint fp_save("data.budget_store.save", save);

  const std::string ledger_path =
      ::testing::TempDir() + "amplification_fault_ledger.txt";
  std::remove(ledger_path.c_str());

  ServiceOptions options;
  options.admission_workers = 4;
  options.admission_queue_capacity = 1100;  // the whole batch fits
  options.introspect_port = 0;              // ephemeral
  options.ledger_path = ledger_path;
  options.runtime.chamber_policy.process_isolation = true;
  auto service = MakeService(options, /*budget=*/200.0);
  ASSERT_GT(service->introspect_port(), 0);

  constexpr int kQueries = 1000;
  constexpr int kChargeRefused = kQueries / 10;      // every-10th admission
  constexpr int kCharged = kQueries - kChargeRefused;
  constexpr int kPersistFailed = kCharged / 9;       // every-9th save
  // The planned block count is fixed from the expected subsample size
  // rate * n, so it is the same for every query whatever subsample each
  // one draws.
  constexpr std::size_t kBlocksPerQuery =
      static_cast<std::size_t>(kRows * kRate) / kBlockSize;

  std::vector<std::future<Result<QueryReport>>> futures;
  futures.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    futures.push_back(service->SubmitQueryAsync(AmplifiedMeanRequest()));
  }

  const double per_query = AmplifiedCharge();
  int ok = 0;
  int charge_refused = 0;
  int persist_failed = 0;
  std::size_t fallback_total = 0;
  for (auto& future : futures) {
    Result<QueryReport> report = future.get();  // every future resolves
    if (report.ok()) {
      ++ok;
      EXPECT_EQ(report->epsilon_spent, per_query);
      EXPECT_EQ(report->epsilon_raw, kEpsilon);
      EXPECT_EQ(report->sampling_rate, kRate);
      EXPECT_EQ(report->num_blocks, kBlocksPerQuery);
      fallback_total += report->fallback_blocks;
    } else if (report.status().message().find("core.amplify.charge") !=
               std::string::npos) {
      ++charge_refused;
    } else if (report.status().message().find("ledger persist failed") !=
               std::string::npos) {
      ++persist_failed;
    } else {
      ADD_FAILURE() << "unexpected outcome: " << report.status();
    }
  }
  // Exact verdict arithmetic: 1000 amplified admissions evaluate the
  // charge site; every 10th fires and is refused uncharged. The 900
  // admitted queries run 4 chamber children each (3600 evaluations, 900
  // crashes -> 900 fallback blocks) and persist the ledger once each (900
  // evaluations, 100 failures that keep the charge).
  EXPECT_EQ(charge_refused, kChargeRefused);
  EXPECT_EQ(persist_failed, kPersistFailed);
  EXPECT_EQ(ok, kCharged - kPersistFailed);
  EXPECT_EQ(fp_charge.evaluations(), static_cast<std::size_t>(kQueries));
  EXPECT_EQ(fp_charge.fires(), static_cast<std::size_t>(kChargeRefused));
  EXPECT_EQ(fp_crash.evaluations(),
            static_cast<std::size_t>(kCharged) * kBlocksPerQuery);
  EXPECT_EQ(fp_crash.fires(),
            static_cast<std::size_t>(kCharged) * kBlocksPerQuery / 4);
  EXPECT_EQ(fp_save.evaluations(), static_cast<std::size_t>(kCharged));
  EXPECT_EQ(fp_save.fires(), static_cast<std::size_t>(kPersistFailed));
  // Crashed children degrade to fallback substitution only in OK reports;
  // persist-failed queries also executed (their fallbacks are unobserved
  // here), so the OK tally is bounded by the total injected crash count.
  EXPECT_LE(fallback_total,
            static_cast<std::size_t>(kCharged) * kBlocksPerQuery / 4);

  // /budgetz equals the hand-computed amplified ledger to 17 digits: 900
  // charges of exactly epsilon' = ln(1 + 0.25 * (e^0.5 - 1)). All charges
  // are the same double, so the sum is independent of worker interleaving.
  double expected_spent = 0.0;
  double expected_raw = 0.0;
  for (int i = 0; i < kCharged; ++i) {
    expected_spent += per_query;
    expected_raw += kEpsilon;
  }
  HttpGetResult scrape = HttpGet("127.0.0.1", service->introspect_port(),
                                 "/budgetz?format=json");
  ASSERT_TRUE(scrape.ok) << scrape.error;
  JsonValue root;
  ASSERT_TRUE(ParseJson(scrape.body, &root)) << scrape.body;
  const JsonValue* datasets = root.Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->array.size(), 1u);
  const JsonValue& entry = datasets->array[0];
  EXPECT_EQ(entry.Find("dataset")->string, "ages");
  EXPECT_EQ(entry.Find("total_epsilon")->number, 200.0);
  EXPECT_EQ(entry.Find("spent_epsilon")->number, expected_spent);
  EXPECT_EQ(entry.Find("remaining_epsilon")->number, 200.0 - expected_spent);
  ASSERT_EQ(entry.Find("charges")->array.size(),
            static_cast<std::size_t>(kCharged));
  for (const JsonValue& charged : entry.Find("charges")->array) {
    EXPECT_EQ(charged.Find("epsilon")->number, per_query);
  }
  const JsonValue* amplification = entry.Find("amplification");
  ASSERT_NE(amplification, nullptr);
  EXPECT_EQ(amplification->Find("queries")->number,
            static_cast<double>(kCharged));
  EXPECT_EQ(amplification->Find("epsilon_raw")->number, expected_raw);
  EXPECT_EQ(amplification->Find("epsilon_charged")->number, expected_spent);
  EXPECT_EQ(amplification->Find("epsilon_saved")->number,
            expected_raw - expected_spent);

  std::remove(ledger_path.c_str());
}

TEST_F(AmplificationFaultTest, ChargeFaultLeavesLedgerUntouched) {
  // Fire on EVERY amplified admission: no query may charge anything, and
  // the failure surfaces as the injected error on a resolved future.
  Config config;
  config.every_nth = 1;
  ScopedFailpoint fp("core.amplify.charge", config);

  ServiceOptions options;
  auto service = MakeService(options, /*budget=*/10.0);

  for (int i = 0; i < 5; ++i) {
    auto report = service->SubmitQuery(AmplifiedMeanRequest());
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.status().message().find("core.amplify.charge"),
              std::string::npos);
  }
  EXPECT_EQ(fp.fires(), 5u);
  EXPECT_EQ(service->RemainingBudget("ages").value(), 10.0);
  EXPECT_EQ(service->AmplificationTotals("ages").queries, 0u);
  // Every refusal is audited, uncharged.
  for (const AuditRecord& record : service->audit_log()) {
    EXPECT_FALSE(record.accepted);
    EXPECT_EQ(record.epsilon_charged, 0.0);
  }
}

TEST_F(AmplificationFaultTest, CalibrateFaultIsPreAdmission) {
  Config config;
  config.every_nth = 1;
  ScopedFailpoint fp("core.amplify.calibrate", config);

  ServiceOptions options;
  auto service = MakeService(options, /*budget=*/10.0);

  auto report = service->SubmitQuery(AmplifiedMeanRequest());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("core.amplify.calibrate"),
            std::string::npos);
  EXPECT_EQ(fp.fires(), 1u);
  EXPECT_EQ(service->RemainingBudget("ages").value(), 10.0);
}

TEST_F(AmplificationFaultTest, AmplifySitesAreNotEvaluatedWhenOff) {
  // The amplify failpoints sit on the amplified path only: a query without
  // a rate must not even evaluate them (the unamplified path stays
  // bit-for-bit identical, failpoint hit counters included).
  Config config;
  config.every_nth = 1;
  ScopedFailpoint fp_charge("core.amplify.charge", config);
  ScopedFailpoint fp_calibrate("core.amplify.calibrate", config);

  ServiceOptions options;
  auto service = MakeService(options, /*budget=*/10.0);

  QueryRequest request = AmplifiedMeanRequest();
  request.amplification_rate.reset();
  auto report = service->SubmitQuery(request);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epsilon_spent, kEpsilon);  // raw charge, no discount
  EXPECT_EQ(fp_charge.evaluations(), 0u);
  EXPECT_EQ(fp_calibrate.evaluations(), 0u);
}

TEST_F(AmplificationFaultTest, PersistAndRestoreFaultsKeepAmplifiedLedger) {
  const std::string ledger_path =
      ::testing::TempDir() + "amplification_restore_ledger.txt";
  std::remove(ledger_path.c_str());
  const double per_query = AmplifiedCharge();

  ServiceOptions options;
  options.ledger_path = ledger_path;
  {
    auto service = MakeService(options, /*budget=*/10.0);
    // First accepted query persists; then a save fault hits the second:
    // the caller sees the persist error, but the in-memory charge stays
    // (it was irrevocable the moment AdmitStage debited it).
    auto first = service->SubmitQuery(AmplifiedMeanRequest());
    ASSERT_TRUE(first.ok()) << first.status();
    {
      Config config;
      config.every_nth = 1;
      ScopedFailpoint fp("data.budget_store.save", config);
      auto second = service->SubmitQuery(AmplifiedMeanRequest());
      ASSERT_FALSE(second.ok());
      EXPECT_NE(second.status().message().find("ledger persist failed"),
                std::string::npos);
      EXPECT_EQ(fp.fires(), 1u);
    }
    // The accountant accumulates spend and subtracts once, so mirror
    // that association exactly.
    EXPECT_EQ(service->RemainingBudget("ages").value(),
              10.0 - (per_query + per_query));
    // With the fault disarmed the full two-charge ledger lands on disk.
    ASSERT_TRUE(service->PersistLedger().ok());
  }

  // A restarted service restores the amplified charges exactly; an
  // injected load fault is surfaced, not silently swallowed.
  auto restarted = MakeService(options, /*budget=*/10.0);
  {
    Config config;
    config.every_nth = 1;
    ScopedFailpoint fp("data.budget_store.load", config);
    Status restored = restarted->RestoreLedger();
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(fp.fires(), 1u);
  }
  ASSERT_TRUE(restarted->RestoreLedger().ok());
  EXPECT_EQ(restarted->RemainingBudget("ages").value(),
            10.0 - (per_query + per_query));
  std::remove(ledger_path.c_str());
}

}  // namespace
}  // namespace gupt
