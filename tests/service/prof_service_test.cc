// Integration tests for the profiling & resource-accounting surface of
// GuptService over a real socket: /profilez returns parseable folded
// stacks that attribute CPU-burning samples to the execute_blocks stage,
// /slowz agrees with the audit log and /tracez on the same query id, and
// the parameter validation / busy paths answer with the right statuses.

#include "service/gupt_service.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/introspect/http_client.h"
#include "obs/prof/profiler.h"
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

/// A registry with a vetted "spin" program that burns ~2 ms of CPU per
/// block: the CPU anchor the profiler must attribute to execute_blocks.
ProgramRegistry RegistryWithSpin() {
  ProgramRegistry registry = ProgramRegistry::WithStandardPrograms();
  EXPECT_TRUE(
      registry
          .RegisterBuilder(
              "spin",
              [](const ProgramSpec&) -> Result<ProgramFactory> {
                return MakeProgramFactory("spin", 1, [](const Dataset& block) {
                  volatile double sink = 0;
                  for (int i = 0; i < 400000; ++i) {
                    sink = sink + static_cast<double>(i % 97) * 1e-9;
                  }
                  return Result<Row>(
                      Row{static_cast<double>(block.num_rows()) + sink});
                });
              })
          .ok());
  return registry;
}

std::unique_ptr<GuptService> MakeServingService(ServiceOptions options,
                                                ProgramRegistry registry,
                                                double budget = 50.0) {
  options.introspect_port = 0;  // ephemeral
  auto service =
      std::make_unique<GuptService>(std::move(options), std::move(registry));
  EXPECT_GT(service->introspect_port(), 0);
  DatasetOptions ds;
  ds.total_epsilon = budget;
  EXPECT_TRUE(service->RegisterDataset("ages", Ages(4000, 1), ds).ok());
  return service;
}

TEST(ProfServiceTest, ProfilezReturnsFoldedStacksAttributedToExecuteBlocks) {
  ASSERT_FALSE(obs::prof::Profiler::Get().IsRunning());
  ServiceOptions options;
  options.runtime.num_workers = 2;
  options.admission_workers = 2;
  auto service = MakeServingService(options, RegistryWithSpin());

  // Keep the block-execution workers burning CPU inside the spin program
  // for the whole capture window.
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    while (!stop.load()) {
      QueryRequest request = MeanRequest(0.01);
      request.program.name = "spin";
      request.block_size = 500;  // 8 blocks x ~2ms CPU per query
      auto report = service->SubmitQuery(request);
      if (!report.ok()) break;  // budget exhausted: the capture is over
    }
  });

  HttpGetResult capture =
      HttpGet("127.0.0.1", service->introspect_port(),
              "/profilez?seconds=1&hz=250", /*timeout_ms=*/20000);
  stop.store(true);
  burner.join();

  ASSERT_TRUE(capture.ok) << capture.error;
  ASSERT_EQ(capture.status, 200) << capture.body;
  EXPECT_NE(capture.content_type.find("text/plain"), std::string::npos);
  // The body must parse as folded stacks (the same validator gupt_cli
  // profile applies before writing the file).
  EXPECT_GT(obs::prof::FoldedSampleCount(capture.body), 0) << capture.body;
  // The CPU anchor: samples taken inside the spin program fold under the
  // execute_blocks stage root set by the worker threads.
  EXPECT_NE(capture.body.find("stage:execute_blocks"), std::string::npos)
      << capture.body;
  // The capture stopped and disarmed the profiler.
  EXPECT_FALSE(obs::prof::Profiler::Get().IsRunning());
}

TEST(ProfServiceTest, ProfilezValidatesParamsAndClampsTheWindow) {
  ServiceOptions options;
  options.profilez_max_seconds = 0.2;  // clamp long requests
  auto service =
      MakeServingService(options, ProgramRegistry::WithStandardPrograms());
  const int port = service->introspect_port();

  EXPECT_EQ(HttpGet("127.0.0.1", port, "/profilez?seconds=abc").status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/profilez?seconds=-1").status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/profilez?seconds=0").status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/profilez?hz=0").status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/profilez?hz=5000").status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/profilez?hz=xyz").status, 400);

  // ?seconds=60 is clamped to 0.2s: the request answers promptly.
  const auto begin = std::chrono::steady_clock::now();
  HttpGetResult clamped =
      HttpGet("127.0.0.1", port, "/profilez?seconds=60", /*timeout_ms=*/10000);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_TRUE(clamped.ok) << clamped.error;
  EXPECT_EQ(clamped.status, 200);
  EXPECT_LT(took, 5.0);
  EXPECT_GE(obs::prof::FoldedSampleCount(clamped.body), 0) << clamped.body;
}

TEST(ProfServiceTest, ProfilezAnswers503WhileAnotherCaptureIsRunning) {
  auto service = MakeServingService(ServiceOptions{},
                                    ProgramRegistry::WithStandardPrograms());
  // Occupy the process-wide profiler directly: the endpoint must refuse
  // rather than queue or restart the capture.
  ASSERT_TRUE(obs::prof::Profiler::Get().Start(obs::prof::ProfilerOptions{}));
  HttpGetResult busy = HttpGet("127.0.0.1", service->introspect_port(),
                               "/profilez?seconds=0.1");
  EXPECT_EQ(busy.status, 503);
  EXPECT_NE(busy.body.find("busy"), std::string::npos);
  (void)obs::prof::Profiler::Get().Stop();

  HttpGetResult retry = HttpGet("127.0.0.1", service->introspect_port(),
                                "/profilez?seconds=0.1", /*timeout_ms=*/10000);
  EXPECT_EQ(retry.status, 200);
}

TEST(ProfServiceTest, SlowzAgreesWithAuditAndTracezOnTheSameQueryId) {
  ServiceOptions options;
  options.runtime.num_workers = 2;
  auto service =
      MakeServingService(options, ProgramRegistry::WithStandardPrograms());
  auto report = service->SubmitQuery(MeanRequest(0.5));
  ASSERT_TRUE(report.ok()) << report.status();
  const std::uint64_t qid = report->trace.query_id();
  ASSERT_GT(qid, 0u);

  // --- /slowz?format=json --------------------------------------------------
  HttpGetResult scrape = HttpGet("127.0.0.1", service->introspect_port(),
                                 "/slowz?format=json");
  ASSERT_TRUE(scrape.ok) << scrape.error;
  ASSERT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.content_type.find("application/json"), std::string::npos);
  JsonValue root;
  ASSERT_TRUE(ParseJson(scrape.body, &root)) << scrape.body;
  const JsonValue* queries = root.Find("queries");
  ASSERT_NE(queries, nullptr);
  const JsonValue* entry = nullptr;
  for (const JsonValue& candidate : queries->array) {
    if (candidate.Find("query_id")->number == static_cast<double>(qid)) {
      entry = &candidate;
    }
  }
  ASSERT_NE(entry, nullptr) << scrape.body;

  // The entry is a copy of the report's own ledger: exact agreement (the
  // JSON doubles round-trip through 17-digit formatting).
  EXPECT_EQ(entry->Find("analyst")->string, "alice");
  EXPECT_EQ(entry->Find("program")->string, "mean");
  EXPECT_EQ(entry->Find("status")->string, "ok");
  EXPECT_DOUBLE_EQ(entry->Find("wall_seconds")->number,
                   std::chrono::duration<double>(report->elapsed).count());
  EXPECT_DOUBLE_EQ(entry->Find("cpu_seconds")->number,
                   static_cast<double>(report->resources.cpu_ns) / 1e9);

  // --- the audit record for the same query ---------------------------------
  std::vector<AuditRecord> audit = service->audit_log();
  ASSERT_FALSE(audit.empty());
  const AuditRecord& record = audit.back();
  ASSERT_TRUE(record.accepted);
  EXPECT_DOUBLE_EQ(record.cpu_seconds, entry->Find("cpu_seconds")->number);
  EXPECT_DOUBLE_EQ(record.child_cpu_seconds,
                   entry->Find("child_cpu_seconds")->number);
  EXPECT_FALSE(record.resource_summary.empty());

  // --- stage breakdown vs the trace ----------------------------------------
  const JsonValue* stages = entry->Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array.size(), report->trace.spans().size());
  double stage_cpu_sum = 0;
  for (std::size_t i = 0; i < stages->array.size(); ++i) {
    const JsonValue& stage = stages->array[i];
    const obs::SpanRecord& span = report->trace.spans()[i];
    EXPECT_EQ(stage.Find("name")->string, span.name);
    EXPECT_DOUBLE_EQ(stage.Find("wall_seconds")->number,
                     std::chrono::duration<double>(span.duration).count());
    stage_cpu_sum += stage.Find("cpu_seconds")->number;
  }
  // Per-stage CPU sums to the query CPU within clock granularity (the
  // driver brackets the stage walk; see resource_ledger_test.cc).
  EXPECT_LE(stage_cpu_sum,
            entry->Find("cpu_seconds")->number +
                1e-3 * static_cast<double>(stages->array.size() + 1));

  // --- /tracez carries the same qid with matching wall spans ---------------
  HttpGetResult tracez =
      HttpGet("127.0.0.1", service->introspect_port(), "/tracez");
  ASSERT_TRUE(tracez.ok) << tracez.error;
  JsonValue trace_root;
  ASSERT_TRUE(ParseJson(tracez.body, &trace_root)) << tracez.body;
  const JsonValue* events = trace_root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_query = false;
  std::set<std::string> trace_stage_names;
  for (const JsonValue& event : events->array) {
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr) continue;
    if (cat->string == "query" &&
        event.Find("args")->Find("query_id")->number ==
            static_cast<double>(qid)) {
      saw_query = true;
      // dur is microseconds. The trace span and the slow-log wall clock
      // stop at adjacent-but-distinct instants in the query epilogue, so
      // a preemption between them (parallel ctest) can drift them apart;
      // bound the drift generously rather than assert exact agreement.
      EXPECT_NEAR(event.Find("dur")->number,
                  entry->Find("wall_seconds")->number * 1e6, 50'000.0);
    } else if (cat->string == "stage") {
      trace_stage_names.insert(event.Find("name")->string);
    }
  }
  EXPECT_TRUE(saw_query);
  for (const JsonValue& stage : stages->array) {
    EXPECT_TRUE(trace_stage_names.count(stage.Find("name")->string) > 0)
        << "stage " << stage.Find("name")->string << " missing from /tracez";
  }

  // --- the text rendering names the same query -----------------------------
  HttpGetResult text = HttpGet("127.0.0.1", service->introspect_port(),
                               "/slowz");
  ASSERT_TRUE(text.ok) << text.error;
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("qid=" + std::to_string(qid)), std::string::npos)
      << text.body;
  EXPECT_NE(text.body.find("ledger"), std::string::npos);
}

TEST(ProfServiceTest, SlowzRetainsTheWorstQueriesNotTheLatest) {
  ServiceOptions options;
  options.slow_query_log_capacity = 2;
  auto service = MakeServingService(options, RegistryWithSpin());

  // One deliberately heavy query among cheap ones.
  QueryRequest heavy = MeanRequest(0.05);
  heavy.program.name = "spin";
  heavy.block_size = 500;
  auto heavy_report = service->SubmitQuery(heavy);
  ASSERT_TRUE(heavy_report.ok()) << heavy_report.status();
  const std::uint64_t heavy_qid = heavy_report->trace.query_id();

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service->SubmitQuery(MeanRequest(0.05)).ok());
  }

  const obs::prof::SlowQueryLog* log = service->slow_query_log();
  ASSERT_NE(log, nullptr);
  std::vector<obs::prof::SlowQueryEntry> snapshot = log->Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(log->total_considered(), 5u);
  // The heavy query burns ~16ms of spinning: it must still be retained
  // (and first) after four cheap queries tried to displace it.
  EXPECT_EQ(snapshot[0].query_id, heavy_qid);
}

TEST(ProfServiceTest, SlowzJsonWritesAnInfiniteThresholdAsNull) {
  // An infinite threshold retains nothing; the page must still be JSON.
  ServiceOptions options;
  options.slow_query_threshold_seconds =
      std::numeric_limits<double>::infinity();
  auto service =
      MakeServingService(options, ProgramRegistry::WithStandardPrograms());
  ASSERT_TRUE(service->SubmitQuery(MeanRequest(0.5)).ok());
  HttpGetResult scrape = HttpGet("127.0.0.1", service->introspect_port(),
                                 "/slowz?format=json");
  ASSERT_TRUE(scrape.ok) << scrape.error;
  ASSERT_EQ(scrape.status, 200);
  JsonValue root;
  ASSERT_TRUE(ParseJson(scrape.body, &root)) << scrape.body;
  const JsonValue* threshold = root.Find("threshold_seconds");
  ASSERT_NE(threshold, nullptr) << scrape.body;
  EXPECT_EQ(threshold->type, JsonValue::Type::kNull) << scrape.body;
  ASSERT_NE(root.Find("queries"), nullptr);
  EXPECT_TRUE(root.Find("queries")->array.empty()) << scrape.body;
}

TEST(ProfServiceTest, SlowzDisabledAnswers404) {
  ServiceOptions options;
  options.slow_query_log_capacity = 0;
  auto service =
      MakeServingService(options, ProgramRegistry::WithStandardPrograms());
  EXPECT_EQ(service->slow_query_log(), nullptr);
  ASSERT_TRUE(service->SubmitQuery(MeanRequest(0.5)).ok());
  HttpGetResult scrape =
      HttpGet("127.0.0.1", service->introspect_port(), "/slowz");
  EXPECT_EQ(scrape.status, 404);
}

TEST(ProfServiceTest, ProfMetricFamiliesAppearInTheScrape) {
  auto service = MakeServingService(ServiceOptions{},
                                    ProgramRegistry::WithStandardPrograms());
  ASSERT_TRUE(service->SubmitQuery(MeanRequest(0.5)).ok());
  HttpGetResult capture =
      HttpGet("127.0.0.1", service->introspect_port(),
              "/profilez?seconds=0.1", /*timeout_ms=*/10000);
  ASSERT_EQ(capture.status, 200) << capture.body;

  HttpGetResult metrics =
      HttpGet("127.0.0.1", service->introspect_port(), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  for (const char* needle :
       {"gupt_prof_stage_cpu_seconds", "gupt_prof_query_cpu_seconds",
        "gupt_prof_profile_requests_total", "gupt_prof_samples_recorded_total",
        "gupt_rusage_minor_faults_total", "gupt_rusage_ctx_switches_total",
        "gupt_rusage_process_max_rss_bytes"}) {
    EXPECT_NE(metrics.body.find(needle), std::string::npos)
        << "missing " << needle;
  }
}

}  // namespace
}  // namespace gupt
