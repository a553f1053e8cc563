// Fault injection against the hosted service: process chambers crashing
// underneath an 8-thread asynchronous batch, injected admission and
// process-query refusals, and a failpoint dropping introspection
// connections. Throughout, the invariants of §6.2 must hold: every
// future resolves, crashed blocks degrade to the data-independent
// fallback with EXACT counts (the failpoint allocates every-Nth verdicts
// under one lock, so interleaving cannot change the totals), and the
// /budgetz ledger equals the hand-computed spend.

#include "service/gupt_service.h"

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
  request.block_size = 64;  // 512 rows => exactly 8 blocks per query
  return request;
}

std::unique_ptr<GuptService> MakeService(ServiceOptions options,
                                         double budget) {
  auto service = std::make_unique<GuptService>(
      std::move(options), ProgramRegistry::WithStandardPrograms());
  DatasetOptions ds;
  ds.total_epsilon = budget;
  EXPECT_TRUE(service->RegisterDataset("ages", Ages(512, 1), ds).ok());
  return service;
}

class FaultServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompiledIn()) {
      GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
    }
    failpoints::DisarmAll();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(FaultServiceTest, ChildCrashesUnderAsyncBatchKeepExactAccounting) {
  // Every 4th forked chamber child crashes (the parent sees EOF, exactly
  // like a real SIGSEGV) while 8 analyst threads submit a 32-query batch
  // processed by 4 admission workers. Every future must resolve OK, the
  // aggregate fallback count must equal the injected count EXACTLY even
  // under free interleaving, and /budgetz must equal the pre-computed
  // ledger.
  Config config;
  config.every_nth = 4;
  config.action = Action::kCrash;
  ScopedFailpoint fp("exec.process_chamber.child", config);

  ServiceOptions options;
  options.admission_workers = 4;
  options.introspect_port = 0;  // ephemeral
  options.runtime.chamber_policy.process_isolation = true;
  auto service = MakeService(options, /*budget=*/10.0);
  ASSERT_GT(service->introspect_port(), 0);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  constexpr std::size_t kBlocksPerQuery = 8;
  std::vector<std::thread> analysts;
  std::vector<std::vector<std::future<Result<QueryReport>>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    analysts.emplace_back([&service, &futures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(service->SubmitQueryAsync(MeanRequest(0.25)));
      }
    });
  }
  for (std::thread& analyst : analysts) analyst.join();

  std::size_t fallback_total = 0;
  int resolved = 0;
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      Result<QueryReport> report = future.get();
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->num_blocks, kBlocksPerQuery);
      EXPECT_EQ(report->epsilon_spent, 0.25);
      // Crashed children are substituted, never silently dropped: the
      // release is always over all 8 blocks.
      ASSERT_EQ(report->output.size(), 1u);
      EXPECT_LE(report->fallback_blocks, kBlocksPerQuery);
      fallback_total += report->fallback_blocks;
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, kThreads * kPerThread);

  // 32 queries x 8 blocks = 256 evaluations; every-4th fires exactly 64
  // times no matter how the admission workers interleaved them, and every
  // fire is visible as exactly one fallback block in some report.
  const std::size_t evaluations =
      static_cast<std::size_t>(kThreads * kPerThread) * kBlocksPerQuery;
  EXPECT_EQ(fp.evaluations(), evaluations);
  EXPECT_EQ(fp.fires(), evaluations / 4);
  EXPECT_EQ(fallback_total, evaluations / 4);

  // /budgetz equals the hand-computed ledger: 32 charges of exactly 0.25.
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
  EXPECT_EQ(entry.Find("total_epsilon")->number, 10.0);
  EXPECT_EQ(entry.Find("spent_epsilon")->number, 8.0);
  EXPECT_EQ(entry.Find("remaining_epsilon")->number, 2.0);
  ASSERT_EQ(entry.Find("charges")->array.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (const JsonValue& charge : entry.Find("charges")->array) {
    EXPECT_EQ(charge.Find("epsilon")->number, 0.25);
  }

  // The failpoint hit counters export through the shared registry.
  HttpGetResult metrics =
      HttpGet("127.0.0.1", service->introspect_port(), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_NE(metrics.body.find("gupt_failpoint_fires_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("exec.process_chamber.child"),
            std::string::npos);
}

TEST_F(FaultServiceTest, ChildDelaysCountAsDeadlineFallbacksExactly) {
  // Every 2nd child stalls past the 30ms process deadline: with one
  // admission worker the queries run in submission order, so EACH query
  // sees exactly 4 of its 8 children killed by the deadline.
  Config config;
  config.every_nth = 2;
  config.action = Action::kNoop;
  config.delay = std::chrono::milliseconds(120);
  ScopedFailpoint fp("exec.process_chamber.child", config);

  ServiceOptions options;
  options.admission_workers = 1;
  options.runtime.chamber_policy.process_isolation = true;
  options.runtime.chamber_policy.deadline = std::chrono::microseconds(30000);
  auto service = MakeService(options, /*budget=*/10.0);

  constexpr int kQueries = 2;
  for (int q = 0; q < kQueries; ++q) {
    auto report = service->SubmitQuery(MeanRequest(0.25));
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->num_blocks, 8u);
    EXPECT_EQ(report->fallback_blocks, 4u) << "query " << q;
    EXPECT_EQ(report->deadline_exceeded_blocks, 4u) << "query " << q;
  }
  EXPECT_EQ(fp.evaluations(), 8u * kQueries);
  EXPECT_EQ(fp.fires(), 4u * kQueries);
  EXPECT_EQ(service->RemainingBudget("ages").value(), 10.0 - 0.25 * kQueries);
}

TEST_F(FaultServiceTest, InjectedAdmissionRefusalChargesNothing) {
  // The service.admission.submit failpoint models a full queue: the
  // future must resolve with kUnavailable, nothing may be charged, and
  // the refusal must be audited like a genuine backpressure refusal.
  ScopedFailpoint fp("service.admission.submit", Config{});

  ServiceOptions options;
  auto service = MakeService(options, /*budget=*/5.0);
  auto refused = service->SubmitQueryAsync(MeanRequest(0.5)).get();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(failpoints::IsInjected(refused.status()));
  EXPECT_EQ(service->RemainingBudget("ages").value(), 5.0);

  auto log = service->audit_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].accepted);
  EXPECT_EQ(log[0].epsilon_charged, 0.0);

  // Disarmed, the same request sails through.
  failpoints::DisarmAll();
  EXPECT_TRUE(service->SubmitQuery(MeanRequest(0.5)).ok());
}

TEST_F(FaultServiceTest, InjectedProcessQueryFailureIsAuditedAndUncharged) {
  // service.process_query fires inside the admission worker, before the
  // pipeline (and hence before any charge): the analyst gets the injected
  // error and the refusal lands in the audit log with the full request
  // identity.
  ScopedFailpoint fp("service.process_query", Config{});

  ServiceOptions options;
  auto service = MakeService(options, /*budget=*/5.0);
  auto report = service->SubmitQueryAsync(MeanRequest(0.5)).get();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(failpoints::IsInjected(report.status()));
  EXPECT_EQ(service->RemainingBudget("ages").value(), 5.0);

  auto log = service->audit_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].accepted);
  EXPECT_EQ(log[0].analyst, "alice");
  EXPECT_EQ(log[0].dataset, "ages");
  EXPECT_EQ(log[0].epsilon_charged, 0.0);
}

TEST_F(FaultServiceTest, IntrospectAcceptFaultDropsConnectionsWhileArmed) {
  ServiceOptions options;
  options.introspect_port = 0;
  auto service = MakeService(options, /*budget=*/5.0);
  ASSERT_GT(service->introspect_port(), 0);

  // Healthy first: the socket serves.
  HttpGetResult before =
      HttpGet("127.0.0.1", service->introspect_port(), "/healthz");
  ASSERT_TRUE(before.ok) << before.error;

  {
    // Armed: the accept hook closes every connection before a byte is
    // read, modelling an overloaded or wedged introspection listener.
    ScopedFailpoint fp("service.introspect.accept", Config{});
    HttpGetResult dropped =
        HttpGet("127.0.0.1", service->introspect_port(), "/healthz");
    EXPECT_FALSE(dropped.ok);
    EXPECT_GE(fp.fires(), 1u);
  }

  // The guard restored the site: serving resumes with no restart.
  HttpGetResult after =
      HttpGet("127.0.0.1", service->introspect_port(), "/healthz");
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.status, 200);
}

TEST_F(FaultServiceTest, FailedPersistIsNotCachedAndItsRepeatPays) {
  // A release is cached only once its charge is durable: after a failed
  // persist the identical repeat must execute and be charged again, not be
  // handed the undurable answer for free.
  const std::string ledger =
      ::testing::TempDir() + "/fault_service_cache_ledger.txt";
  std::remove(ledger.c_str());
  ServiceOptions options;
  options.enable_query_cache = true;
  options.ledger_path = ledger;
  auto service = MakeService(options, /*budget=*/5.0);

  Config once;
  once.max_fires = 1;
  ScopedFailpoint fp("data.budget_store.save", once);
  auto failed = service->SubmitQuery(MeanRequest(1.0));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("ledger persist failed"),
            std::string::npos);
  EXPECT_EQ(service->RemainingBudget("ages").value(), 4.0);

  auto repeat = service->SubmitQuery(MeanRequest(1.0));
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_EQ(service->RemainingBudget("ages").value(), 3.0);
  const std::vector<AuditRecord> log = service->audit_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[1].from_cache);
  EXPECT_EQ(log[1].epsilon_charged, 1.0);
  EXPECT_EQ(fp.fires(), 1u);

  // Durable now, so the third identical query is served from the cache.
  auto cached = service->SubmitQuery(MeanRequest(1.0));
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->output, repeat->output);
  EXPECT_EQ(service->RemainingBudget("ages").value(), 3.0);
  EXPECT_TRUE(service->audit_log().back().from_cache);
  std::remove(ledger.c_str());
}

}  // namespace
}  // namespace gupt
