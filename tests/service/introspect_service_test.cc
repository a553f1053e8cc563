// Tests for the live introspection server embedded in GuptService: scraping
// /metrics over a real socket, /budgetz agreeing exactly with the
// accountant under concurrent submission, /healthz flipping with admission
// backpressure, and /tracez rendering a gamma>1 fan-out across worker
// lanes.

#include "service/gupt_service.h"

#include <cstdio>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/introspect/http_client.h"
#include "../obs/minijson.h"

namespace gupt {
namespace {

using ::gupt::obs::introspect::HttpGet;
using ::gupt::obs::introspect::HttpGetResult;
using ::gupt::testjson::JsonValue;
using ::gupt::testjson::ParseJson;

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

std::unique_ptr<GuptService> MakeServingService(ServiceOptions options,
                                                double budget = 5.0) {
  options.introspect_port = 0;  // ephemeral
  auto service = std::make_unique<GuptService>(
      std::move(options), ProgramRegistry::WithStandardPrograms());
  EXPECT_GT(service->introspect_port(), 0);
  DatasetOptions ds;
  ds.total_epsilon = budget;
  EXPECT_TRUE(service->RegisterDataset("ages", Ages(5000, 1), ds).ok());
  return service;
}

/// C++ mirror of tools/check_metrics_names.py --payload: the sample name
/// must be gupt_<...>_<unit> (>= 4 words, known unit), allowing the
/// _bucket/_sum/_count suffixes Prometheus histograms append.
bool ValidPayloadSampleName(std::string name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = name.substr(0, name.size() - s.size());
      if (ValidPayloadSampleName(base)) return true;
    }
  }
  static const std::set<std::string> kUnits = {
      "seconds", "bytes", "total", "count", "ratio", "epsilon", "scale",
      "depth"};
  std::vector<std::string> words;
  std::string word;
  for (char c : name) {
    if (c == '_') {
      if (word.empty()) return false;  // double underscore
      words.push_back(word);
      word.clear();
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      word += c;
    } else {
      return false;
    }
  }
  if (word.empty()) return false;
  words.push_back(word);
  return words.size() >= 4 && words.front() == "gupt" &&
         kUnits.count(words.back()) > 0;
}

TEST(IntrospectServiceTest, MetricsScrapeIsValidAndEveryNamePassesTheLint) {
  auto service = MakeServingService(ServiceOptions{});
  ASSERT_TRUE(service->SubmitQuery(MeanRequest(0.5)).ok());

  HttpGetResult scrape =
      HttpGet("127.0.0.1", service->introspect_port(), "/metrics");
  ASSERT_TRUE(scrape.ok) << scrape.error;
  ASSERT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.content_type.find("text/plain"), std::string::npos);

  // Key series from every layer must be present in the scrape.
  for (const char* needle :
       {"gupt_runtime_queries_total", "gupt_dp_epsilon_charged_total",
        "gupt_service_requests_total", "gupt_introspect_requests_total",
        "gupt_exec_block_duration_seconds"}) {
    EXPECT_NE(scrape.body.find(needle), std::string::npos)
        << "missing " << needle;
  }

  // Every sample line's name must follow the naming convention.
  std::istringstream lines(scrape.body);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t end = line.find_first_of("{ ");
    const std::string name = line.substr(0, end);
    ++samples;
    EXPECT_TRUE(ValidPayloadSampleName(name)) << "bad sample name: " << name;
  }
  EXPECT_GT(samples, 0u);
}

TEST(IntrospectServiceTest, BudgetzMatchesAccountantExactlyAfterAsyncBatch) {
  ServiceOptions options;
  options.admission_workers = 4;
  auto service = MakeServingService(options, /*budget=*/10.0);

  // 8 threads x 4 submissions x epsilon 0.25: all fit in the budget.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
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
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      ASSERT_TRUE(future.get().ok());
    }
  }

  HttpGetResult scrape = HttpGet("127.0.0.1", service->introspect_port(),
                                 "/budgetz?format=json");
  ASSERT_TRUE(scrape.ok) << scrape.error;
  ASSERT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.content_type.find("application/json"), std::string::npos);

  JsonValue root;
  ASSERT_TRUE(ParseJson(scrape.body, &root)) << scrape.body;
  const JsonValue* datasets = root.Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->array.size(), 1u);
  const JsonValue& entry = datasets->array[0];
  EXPECT_EQ(entry.Find("dataset")->string, "ages");

  // Exact equality, not approximate: /budgetz publishes the same doubles
  // the accountant holds (17-digit round-trip formatting), and 32 x 0.25
  // is exact in binary floating point.
  const double spent = 0.25 * kThreads * kPerThread;
  EXPECT_EQ(entry.Find("total_epsilon")->number, 10.0);
  EXPECT_EQ(entry.Find("spent_epsilon")->number, spent);
  EXPECT_EQ(entry.Find("remaining_epsilon")->number,
            service->RemainingBudget("ages").value());
  EXPECT_EQ(entry.Find("remaining_epsilon")->number, 10.0 - spent);
  const JsonValue* charges = entry.Find("charges");
  ASSERT_NE(charges, nullptr);
  ASSERT_EQ(charges->array.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  double charge_sum = 0.0;
  for (const JsonValue& charge : charges->array) {
    charge_sum += charge.Find("epsilon")->number;
  }
  EXPECT_EQ(charge_sum, spent);

  // The plain-text table renders the same ledger.
  HttpGetResult table =
      HttpGet("127.0.0.1", service->introspect_port(), "/budgetz");
  ASSERT_TRUE(table.ok) << table.error;
  EXPECT_NE(table.body.find("dataset ages"), std::string::npos);
  EXPECT_NE(table.body.find("epsilon remaining"), std::string::npos);
}

TEST(IntrospectServiceTest, BudgetzListsTheNewestChargesWithExactTotals) {
  // 1,500 charges restored from a ledger file: /budgetz keeps num_charges
  // and the totals exact but lists only the newest kBudgetzCharges = 1,024.
  constexpr int kCharges = 1500;
  static_assert(GuptService::kBudgetzCharges == 1024);
  const std::string ledger =
      ::testing::TempDir() + "/introspect_budgetz_window.ledger";
  std::string text = "gupt-ledger v1\ndataset ages total 1000\n";
  double spent = 0.0;
  for (int k = 1; k <= kCharges; ++k) {
    const double epsilon = 0.125 * (k % 4 + 1);  // dyadic: sums are exact
    spent += epsilon;
    std::ostringstream line;
    line << "charge " << epsilon << " q" << k << "\n";
    text += line.str();
  }
  {
    std::ofstream out(ledger, std::ios::trunc);
    out << text;
  }
  ServiceOptions options;
  options.ledger_path = ledger;
  auto service = MakeServingService(options, /*budget=*/1000.0);
  ASSERT_TRUE(service->RestoreLedger().ok());

  HttpGetResult scrape = HttpGet("127.0.0.1", service->introspect_port(),
                                 "/budgetz?format=json");
  ASSERT_TRUE(scrape.ok) << scrape.error;
  JsonValue root;
  ASSERT_TRUE(ParseJson(scrape.body, &root)) << scrape.body;
  const JsonValue& entry = root.Find("datasets")->array.at(0);
  EXPECT_EQ(entry.Find("num_charges")->number, kCharges);
  EXPECT_EQ(entry.Find("spent_epsilon")->number, spent);
  EXPECT_EQ(entry.Find("remaining_epsilon")->number, 1000.0 - spent);
  const std::vector<JsonValue>& listed = entry.Find("charges")->array;
  ASSERT_EQ(listed.size(), 1024u);
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const int k = kCharges - 1024 + 1 + static_cast<int>(i);  // 477..1500
    EXPECT_EQ(listed[i].Find("label")->string, "q" + std::to_string(k));
    EXPECT_EQ(listed[i].Find("epsilon")->number, 0.125 * (k % 4 + 1));
  }

  HttpGetResult table =
      HttpGet("127.0.0.1", service->introspect_port(), "/budgetz");
  ASSERT_TRUE(table.ok) << table.error;
  const std::size_t header = table.body.find("charges (1500):\n");
  ASSERT_NE(header, std::string::npos) << table.body.substr(0, 400);
  const std::size_t first = table.body.find("    [", header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(table.body.compare(first, 10, "    [477] "), 0)
      << table.body.substr(header, 200);
  EXPECT_NE(table.body.find("  q477\n"), std::string::npos);
  EXPECT_EQ(table.body.find("  q476\n"), std::string::npos);
  EXPECT_NE(table.body.find("    [1500] "), std::string::npos);
  std::remove(ledger.c_str());
}

TEST(IntrospectServiceTest, HealthzFlipsUnhealthyWhileAdmissionQueueIsFull) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto entered = std::make_shared<std::promise<void>>();
  std::future<void> worker_parked = entered->get_future();

  ProgramRegistry registry = ProgramRegistry::WithStandardPrograms();
  ASSERT_TRUE(
      registry
          .RegisterBuilder(
              "blocker",
              [opened, entered](const ProgramSpec&) -> Result<ProgramFactory> {
                return MakeProgramFactory(
                    "blocker", 1, [opened, entered](const Dataset&) {
                      entered->set_value();
                      opened.wait();
                      return Result<Row>(Row{0.0});
                    });
              })
          .ok());

  ServiceOptions options;
  options.admission_workers = 1;
  options.admission_queue_capacity = 1;
  options.introspect_port = 0;
  GuptService service(options, std::move(registry));
  ASSERT_GT(service.introspect_port(), 0);
  DatasetOptions ds;
  ds.total_epsilon = 5.0;
  ASSERT_TRUE(service.RegisterDataset("ages", Ages(500, 1), ds).ok());

  HttpGetResult healthy =
      HttpGet("127.0.0.1", service.introspect_port(), "/healthz");
  ASSERT_TRUE(healthy.ok) << healthy.error;
  EXPECT_EQ(healthy.status, 200);
  EXPECT_EQ(healthy.body, "ok\n");

  // Fill the only admission slot with a query parked inside the program.
  QueryRequest blocked = MeanRequest(0.5);
  blocked.program.name = "blocker";
  blocked.block_size = 500;  // one block: the program runs exactly once
  auto occupying = service.SubmitQueryAsync(blocked);
  worker_parked.wait();

  HttpGetResult saturated =
      HttpGet("127.0.0.1", service.introspect_port(), "/healthz");
  ASSERT_TRUE(saturated.ok) << saturated.error;
  EXPECT_EQ(saturated.status, 503);
  EXPECT_NE(saturated.body.find("admission queue full"), std::string::npos);

  gate.set_value();
  ASSERT_TRUE(occupying.get().ok());

  HttpGetResult recovered =
      HttpGet("127.0.0.1", service.introspect_port(), "/healthz");
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.status, 200);
}

TEST(IntrospectServiceTest, TracezRendersFanOutAcrossDistinctWorkerLanes) {
  ServiceOptions options;
  options.runtime.num_workers = 4;
  auto service = MakeServingService(options);

  // Whether a single query's blocks actually land on >= 2 pool workers is a
  // scheduler outcome: on a loaded single-core host one worker can drain the
  // whole queue before the others wake. Submit until the fan-out happens
  // (overwhelmingly the first attempt), bounded so a rendering bug still
  // fails fast; lanes accumulate across attempts, which is what /tracez
  // renders anyway.
  std::set<double> block_lanes;
  bool saw_query_span = false;
  bool saw_execute_stage = false;
  for (int attempt = 0; attempt < 10 && block_lanes.size() < 2; ++attempt) {
    QueryRequest request = MeanRequest(0.5);
    request.gamma = 2;  // resampled partition: plenty of blocks to fan out
    ASSERT_TRUE(service->SubmitQuery(request).ok());

    HttpGetResult scrape =
        HttpGet("127.0.0.1", service->introspect_port(), "/tracez");
    ASSERT_TRUE(scrape.ok) << scrape.error;
    ASSERT_EQ(scrape.status, 200);
    EXPECT_NE(scrape.content_type.find("application/json"),
              std::string::npos);

    JsonValue root;
    ASSERT_TRUE(ParseJson(scrape.body, &root)) << scrape.body;
    const JsonValue* events = root.Find("traceEvents");
    ASSERT_NE(events, nullptr);

    block_lanes.clear();
    for (const JsonValue& event : events->array) {
      const JsonValue* cat = event.Find("cat");
      if (cat == nullptr) continue;
      if (cat->string == "block") {
        EXPECT_EQ(event.Find("ph")->string, "X");
        block_lanes.insert(event.Find("tid")->number);
      } else if (cat->string == "query") {
        saw_query_span = true;
        EXPECT_EQ(event.Find("args")->Find("dataset")->string, "ages");
        EXPECT_GT(event.Find("args")->Find("query_id")->number, 0.0);
      } else if (cat->string == "stage" &&
                 event.Find("name")->string == "execute_blocks") {
        saw_execute_stage = true;
      }
    }
  }
  EXPECT_TRUE(saw_query_span);
  EXPECT_TRUE(saw_execute_stage);
  // The gamma=2 fan-out across a 4-worker pool must land on at least two
  // distinct worker lanes — the cross-thread rendering the endpoint exists
  // to provide.
  EXPECT_GE(block_lanes.size(), 2u);
}

TEST(IntrospectServiceTest, IntrospectionOffByDefaultAndRestartRejected) {
  ServiceOptions options;  // introspect_port stays -1
  GuptService service(options, ProgramRegistry::WithStandardPrograms());
  EXPECT_EQ(service.introspect_port(), -1);

  Result<int> started = service.StartIntrospection(0);
  ASSERT_TRUE(started.ok()) << started.status();
  EXPECT_GT(*started, 0);
  EXPECT_EQ(service.introspect_port(), *started);

  // Second start while serving is an error, not a silent rebind.
  EXPECT_FALSE(service.StartIntrospection(0).ok());

  service.StopIntrospection();
  EXPECT_EQ(service.introspect_port(), -1);
}

}  // namespace
}  // namespace gupt
