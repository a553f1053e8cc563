// svcbench: end-to-end and per-layer benchmark of the hosted GUPT service.
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics: the service is set up several
// times (construction with its chamber-pool fork, dataset registration,
// ledger restore, a fixed warm-up) and the median set-up time is reported;
// then one client thread holding one future per analyst drives
// GuptService::SubmitQueryAsync in a closed loop for S seconds.
//
// --trace 1 measures the per-layer metrics: after the same set-up it runs
// a shorter untraced service pass, then replays the same request stream
// through the pipeline's stage objects (replay.h), untraced and traced.
// Spans are written to .bench_build/svcbench-out/ when the run ends. No
// traced number feeds an end-to-end metric.
//
// Every answer, the ledger identity, and (durable_ledger) the ledger file
// the service wrote are checked; a failed check is a failed operation. The
// last line of standard output is the result JSON.

#include <sys/stat.h>

#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "probes.h"
#include "replay.h"
#include "service/gupt_service.h"
#include "spans.h"
#include "workloads.h"

namespace svcbench {
namespace {

// Set-ups per run; the median is reported.
constexpr int kSetupReps = 5;
// The timed pass is cut into windows of this length; throughput, median
// latency and CPU per query are each the median over the windows, so a
// few seconds of host contention (steal, a noisy neighbour) move them
// less than they would move a whole-run average.
constexpr auto kWindow = std::chrono::seconds(1);
// Tail latency is the 99th percentile of consecutive stretches of at least
// this many completions (ten samples beyond it), median over stretches.
constexpr std::size_t kTailStretch = 1000;
// How long the client sleeps on its oldest future before looking at the
// others again: bounds how late a non-oldest answer is noticed.
constexpr auto kPollInterval = std::chrono::microseconds(200);
// Share of a --trace 1 run's seconds given to each pass.
constexpr double kTracedServiceShare = 0.4;
constexpr double kUntracedReplayShare = 0.25;
constexpr double kTracedReplayShare = 0.35;
constexpr int kReplayRounds = 4;
constexpr std::size_t kReplayWarmup = 24;
constexpr std::size_t kMaxReportedFailures = 8;
// durable_ledger's operator scrapes /budgetz this often.
constexpr double kScrapeHz = 2.0;
constexpr char kOutDir[] = ".bench_build/svcbench-out";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have[2] = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  return args;
}

/// Operations attempted and failed, with the first few failure reasons.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;

  void Record(bool ok, const std::string& why) {
    attempted += 1;
    if (ok) return;
    failed += 1;
    if (reasons.size() < kMaxReportedFailures) reasons.push_back(why);
    std::cerr << "svcbench: FAILED: " << why << "\n";
  }
};

Clock::duration For(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// "No time limit" for count-bounded loops such as the warm-up.
constexpr Clock::duration kUnbounded = std::chrono::hours(24);

using Answer = gupt::Result<gupt::QueryReport>;
using SubmitFn = std::function<std::future<Answer>(const Query&)>;

/// Latencies of the queries that completed inside the measurement window,
/// in completion order.
struct LoopResult {
  std::vector<double> latencies_ms;
  std::vector<double> done_s;  // completion time since start, per latency
  std::size_t completed = 0;   // every answer, the drain included
  double window_s = 0.0;
  /// Process + chamber-pool CPU at the start of every kWindow (when
  /// sampled).
  std::vector<std::int64_t> cpu_ns;
};

/// The client: one thread holding one future per analyst. Each analyst
/// sends its next request as soon as its answer arrives (a closed loop
/// with no think time). Sending stops after `run_for` or `max_queries`;
/// the queries still in flight then drain. Every answer is checked and
/// every acknowledged charge recorded.
LoopResult RunClosedLoop(const Workload& workload,
                         std::vector<RequestStream>& streams,
                         const SubmitFn& submit, Clock::duration run_for,
                         std::size_t max_queries, Tally* tally, Acks* acks,
                         bool sample_cpu = false) {
  struct Slot {
    Query query;
    std::future<Answer> future;
    Clock::time_point submitted;
    bool active = false;
  };
  std::vector<Slot> slots(streams.size());
  std::size_t sent = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at = start + run_for;
  auto send = [&](std::size_t i) {
    Slot& slot = slots[i];
    slot.active = sent < max_queries && Clock::now() < stop_at;
    if (!slot.active) return;
    slot.query = streams[i].Next();
    sent += 1;
    slot.submitted = Clock::now();
    slot.future = submit(slot.query);
  };
  LoopResult result;
  std::optional<ServiceCpu> cpu;
  if (sample_cpu) cpu.emplace();
  Clock::time_point next_sample = start;
  for (std::size_t i = 0; i < slots.size(); ++i) send(i);

  while (true) {
    if (sample_cpu && Clock::now() >= next_sample && next_sample <= stop_at) {
      result.cpu_ns.push_back(cpu->Nanos());
      next_sample += kWindow;
    }
    bool any_done = false;
    std::size_t oldest = slots.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.active && slot.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
        const Clock::time_point done = Clock::now();
        Answer answer = slot.future.get();
        std::string why;
        bool ok = answer.ok();
        if (ok) {
          (*acks)[slot.query.dataset_index].push_back(answer->epsilon_spent);
          ok = CheckAnswer(workload, slot.query, *answer, &why);
        } else {
          why = slot.query.request.program.name + ": " +
                answer.status().ToString();
        }
        tally->Record(ok, why);
        result.completed += 1;
        if (done <= stop_at) {
          result.latencies_ms.push_back(Millis(done - slot.submitted));
          result.done_s.push_back(Seconds(done - start));
        }
        any_done = true;
        send(i);
      }
      const bool older = oldest == slots.size() ||
                         slot.submitted < slots[oldest].submitted;
      if (slot.active && older) oldest = i;
    }
    if (oldest == slots.size()) break;  // nothing in flight
    if (!any_done) slots[oldest].future.wait_for(kPollInterval);
  }
  result.window_s = Seconds(std::min(Clock::now(), stop_at) - start);
  return result;
}

/// The end-to-end figures of one timed pass, from its windows.
struct PassStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cpu_ms_per_query = 0.0;
  std::vector<double> window_qps;
};

PassStats Summarize(const LoopResult& pass) {
  const double window_s = Seconds(kWindow);
  const std::size_t windows = std::min(
      static_cast<std::size_t>(pass.window_s / window_s),
      pass.cpu_ns.empty() ? std::size_t{0} : pass.cpu_ns.size() - 1);
  std::vector<std::vector<double>> latencies(windows);
  for (std::size_t i = 0; i < pass.done_s.size(); ++i) {
    const std::size_t w = static_cast<std::size_t>(pass.done_s[i] / window_s);
    if (w < windows) latencies[w].push_back(pass.latencies_ms[i]);
  }
  PassStats stats;
  std::vector<double> p50s, cpus;
  for (std::size_t w = 0; w < windows; ++w) {
    const double n = static_cast<double>(latencies[w].size());
    stats.window_qps.push_back(n / window_s);
    if (n == 0) continue;
    p50s.push_back(Quantile(latencies[w], 0.5));
    cpus.push_back(static_cast<double>(pass.cpu_ns[w + 1] - pass.cpu_ns[w]) /
                   1e6 / n);
  }
  stats.qps = Quantile(stats.window_qps, 0.5);
  stats.p50_ms = Quantile(p50s, 0.5);
  stats.cpu_ms_per_query = Quantile(cpus, 0.5);
  const std::size_t stretches =
      std::max<std::size_t>(1, pass.latencies_ms.size() / kTailStretch);
  std::vector<double> p99s;
  for (std::size_t k = 0; k < stretches; ++k) {
    const std::size_t from = k * pass.latencies_ms.size() / stretches;
    const std::size_t to = (k + 1) * pass.latencies_ms.size() / stretches;
    p99s.push_back(NearestRank(
        std::vector<double>(pass.latencies_ms.begin() + from,
                            pass.latencies_ms.begin() + to),
        0.99));
  }
  stats.p99_ms = Quantile(p99s, 0.5);
  return stats;
}

/// Open-loop operator scraping /budgetz?format=json at a fixed rate, one
/// connection at a time. Each scrape is timed from when it was due, so a
/// stall also charges the scrapes it delays.
class Scraper {
 public:
  Scraper(int port, double hz, std::vector<std::string> datasets)
      : port_(port),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / hz))),
        datasets_(std::move(datasets)) {}

  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read after Stop().
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& late_ms() const { return late_ms_; }
  const std::vector<std::string>& errors() const { return errors_; }
  std::size_t attempted() const { return latency_ms_.size(); }

 private:
  void Loop() {
    const Clock::time_point start = Clock::now();
    for (std::int64_t k = 0;; ++k) {
      const Clock::time_point due = start + k * period_;
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (wake_.wait_until(lock, due, [this] { return stop_; })) return;
      }
      const Clock::time_point fired = Clock::now();
      HttpResult got = HttpGet(port_, "/budgetz?format=json", 5000);
      const Clock::time_point end = Clock::now();
      late_ms_.push_back(Millis(fired - due));
      latency_ms_.push_back(Millis(end - due));
      bool ok = got.ok && got.status == 200;
      for (const std::string& name : datasets_) {
        ok = ok && got.body.find("\"" + name + "\"") != std::string::npos;
      }
      if (!ok) {
        errors_.push_back("/budgetz scrape failed (status " +
                          std::to_string(got.status) + ")");
      }
    }
  }

  const int port_;
  const Clock::duration period_;
  const std::vector<std::string> datasets_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> latency_ms_;
  std::vector<double> late_ms_;
  std::vector<std::string> errors_;
  std::thread thread_;  // declared last: joined before the data it fills
};

std::vector<RequestStream> Streams(const Workload& workload,
                                   std::uint64_t seed) {
  std::vector<RequestStream> streams;
  for (std::size_t a = 0; a < kAnalysts; ++a) {
    streams.emplace_back(workload, seed, a);
  }
  return streams;
}

SubmitFn ServiceSubmit(gupt::GuptService* service) {
  return [service](const Query& query) {
    return service->SubmitQueryAsync(query.request);
  };
}

std::vector<std::string> DatasetNames(const Workload& workload) {
  std::vector<std::string> names;
  for (const DatasetInput& ds : workload.datasets) names.push_back(ds.name);
  return names;
}

gupt::Status RegisterAll(const Workload& workload, gupt::GuptService* service) {
  for (const DatasetInput& ds : workload.datasets) {
    GUPT_RETURN_IF_ERROR(
        service->RegisterDataset(ds.name, ds.data, ds.options));
  }
  return gupt::Status::OK();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

/// One set-up: service construction (the chamber-pool fork included),
/// dataset registration, ledger restore and the warm-up queries.
struct SetUp {
  std::unique_ptr<gupt::GuptService> service;
  double seconds = 0.0;
  double restore_ms = 0.0;
  Acks acks;
};

gupt::Result<SetUp> SetUpService(const Workload& workload,
                                 const std::string& ledger_path,
                                 std::uint64_t seed, Tally* tally) {
  SetUp setup;
  setup.acks.assign(workload.datasets.size(), {});
  gupt::ServiceOptions options = workload.options;
  if (workload.durable) {
    options.ledger_path = ledger_path;
    // Generating the history is the benchmark's job, outside the timing.
    if (!WriteFile(ledger_path, HistoryLedgerText(workload))) {
      return gupt::Status::Internal("cannot write " + ledger_path);
    }
  }
  const Clock::time_point start = Clock::now();
  setup.service = std::make_unique<gupt::GuptService>(
      options, gupt::ProgramRegistry::WithStandardPrograms());
  GUPT_RETURN_IF_ERROR(RegisterAll(workload, setup.service.get()));
  if (workload.durable) {
    const Clock::time_point begin = Clock::now();
    GUPT_RETURN_IF_ERROR(setup.service->RestoreLedger());
    setup.restore_ms = Millis(Clock::now() - begin);
  }
  std::vector<RequestStream> streams = Streams(workload, seed);
  RunClosedLoop(workload, streams, ServiceSubmit(setup.service.get()),
                kUnbounded, workload.warmup_queries, tally, &setup.acks);
  setup.seconds = Seconds(Clock::now() - start);
  return setup;
}

/// Shortest decimal that round-trips the double: every digit measured.
std::string Number(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

double RatioOr0(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Number(values[i]);
  }
  return out + "]";
}

std::string JsonStrings(std::vector<std::string> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (char& c : values[i]) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        c = '\'';
      }
    }
    out += (i ? ", \"" : "\"") + values[i] + "\"";
  }
  return out + "]";
}

/// The per-layer metrics of a --trace 1 run. After the service pass, the
/// same request stream is replayed through the pipeline's stage objects in
/// alternating untraced and traced rounds, and (durable_ledger) the ledger
/// persist is timed at its final size. Appends the replay's figures to
/// `diagnostics`.
std::vector<Metric> MeasureLayers(const Workload& workload, const Args& args,
                                  gupt::ChamberPool* replay_pool,
                                  gupt::GuptService* service,
                                  const LoopResult& pass,
                                  const std::vector<double>& restore_ms,
                                  const std::string& stem, Tally* tally,
                                  std::string* diagnostics) {
  SpanRecorder recorder;
  Replay replay(workload, replay_pool, args.seed, &recorder);
  gupt::Status init = replay.Init();
  tally->Record(init.ok(), "replay init: " + init.ToString());
  if (!init.ok()) return {};
  Acks acks(workload.datasets.size());
  auto submit = [&replay](bool traced) -> SubmitFn {
    return [&replay, traced](const Query& query) {
      return replay.Submit(query, traced);
    };
  };
  const std::size_t unlimited = std::numeric_limits<std::size_t>::max();
  std::vector<RequestStream> streams = Streams(workload, args.seed + 1);
  RunClosedLoop(workload, streams, submit(false), kUnbounded, kReplayWarmup,
                tally, &acks);
  replay.ResetTotals();
  gupt::obs::Counter* copied = gupt::obs::MetricsRegistry::Get().GetCounter(
      "gupt_data_partition_copied_bytes_total",
      "Bytes of row data copied while gathering partition blocks into the "
      "block-shuffled columnar store");
  auto shipped = [replay_pool]() -> double {
    return replay_pool ? static_cast<double>(replay_pool->Stats().shipped_bytes)
                       : 0.0;
  };
  // Untraced and traced rounds alternate, so host drift and warm-up fall
  // on both alike; copy and ship counts are taken over the traced rounds.
  std::vector<double> untraced_ms, traced_ms;
  double copied_bytes = 0.0;
  double shipped_bytes = 0.0;
  for (int round = 0; round < kReplayRounds; ++round) {
    LoopResult untraced = RunClosedLoop(
        workload, streams, submit(false),
        For(kUntracedReplayShare * args.seconds / kReplayRounds), unlimited,
        tally, &acks);
    untraced_ms.insert(untraced_ms.end(), untraced.latencies_ms.begin(),
                       untraced.latencies_ms.end());
    const double copied_before = copied->Value();
    const double shipped_before = shipped();
    LoopResult traced = RunClosedLoop(
        workload, streams, submit(true),
        For(kTracedReplayShare * args.seconds / kReplayRounds), unlimited,
        tally, &acks);
    copied_bytes += copied->Value() - copied_before;
    shipped_bytes += shipped() - shipped_before;
    traced_ms.insert(traced_ms.end(), traced.latencies_ms.begin(),
                     traced.latencies_ms.end());
  }
  std::string why;
  tally->Record(CheckLedger(workload, replay.BudgetSnapshots(), acks, &why),
                "replay ledger: " + why);

  std::vector<double> persist_ms;
  if (workload.durable) {
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point begin = Clock::now();
      gupt::Status persisted = service->PersistLedger();
      persist_ms.push_back(Millis(Clock::now() - begin));
      tally->Record(persisted.ok(), "persist: " + persisted.ToString());
    }
  }

  const LayerTotals t = replay.totals();
  const double q = static_cast<double>(t.queries);
  auto stage = [&](const char* name) {
    auto it = t.stage_ms.find(name);
    return it == t.stage_ms.end() ? 0.0 : RatioOr0(it->second, q);
  };
  double stage_sum = 0.0;
  for (const auto& [name, ms] : t.stage_ms) stage_sum += ms;
  const double blocks = static_cast<double>(t.blocks);
  const double block_ms = RatioOr0(t.block_ms, blocks);
  const double block_cpu_ms =
      replay_pool ? RatioOr0(t.block_cpu_ms, blocks) : 0.0;
  *diagnostics += ", \"traced_queries\": " + std::to_string(t.queries) +
                  ", \"untraced_replay_p50_ms\": " +
                  Number(Quantile(untraced_ms, 0.5)) +
                  ", \"traced_replay_p50_ms\": " +
                  Number(Quantile(traced_ms, 0.5));
  if (!recorder.WriteJson(stem + "-spans.json")) {
    std::cerr << "svcbench: could not write " << stem << "-spans.json\n";
  }
  return {
      {"core.plan_ms", stage("PlanStage"), "ms"},
      {"dp.admit_ms", stage("AdmitStage"), "ms"},
      {"data.partition_ms", stage("PartitionStage"), "ms"},
      {"data.partition_mb_per_query", RatioOr0(copied_bytes / 1e6, q), "MB"},
      {"exec.execute_ms", stage("ExecuteBlocksStage"), "ms"},
      {"exec.block_ms", block_ms, "ms"},
      {"exec.pool_block_cpu_ms", block_cpu_ms, "ms"},
      {"exec.pool_ipc_ms", replay_pool ? block_ms - block_cpu_ms : 0.0, "ms"},
      {"exec.pool_shipped_kb_per_query", RatioOr0(shipped_bytes / 1024.0, q),
       "KiB"},
      {"exec.fallback_ratio",
       RatioOr0(static_cast<double>(t.fallback_blocks), blocks), "ratio"},
      {"common.block_queue_wait_ms", RatioOr0(t.block_queue_wait_ms, blocks),
       "ms"},
      {"common.fanout_join_wait_ms", RatioOr0(t.join_wait_ms, q), "ms"},
      {"core.aggregate_ms", stage("AggregateStage"), "ms"},
      {"core.release_ms", stage("ReleaseStage"), "ms"},
      {"service.overhead_ms",
       Quantile(pass.latencies_ms, 0.5) - Quantile(traced_ms, 0.5),
       "ms"},
      {"data.ledger_persist_ms", Quantile(persist_ms, 0.5), "ms"},
      {"data.ledger_restore_ms",
       workload.durable ? Quantile(restore_ms, 0.5) : 0.0, "ms"},
      {"trace.coverage_ratio", RatioOr0(stage_sum, t.pipeline_ms), "ratio"},
      {"trace.overhead_ratio",
       RatioOr0(RatioOr0(t.pipeline_ms, q),
                RatioOr0(t.untraced_pipeline_ms,
                         static_cast<double>(t.untraced_queries))),
       "ratio"},
  };
}

int Run(const Args& args) {
  gupt::Result<Workload> made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::cerr << "svcbench: " << made.status().ToString() << "\n";
    return 2;
  }
  const Workload& workload = made.value();
  mkdir(".bench_build", 0755);
  mkdir(kOutDir, 0755);
  const std::string stem = std::string(kOutDir) + "/" + workload.name +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::string ledger_path = stem + ".ledger";

  // The replay's chamber pool forks now, while the process is still
  // single-threaded; it idles until the replay runs.
  std::unique_ptr<gupt::ChamberPool> replay_pool;
  if (args.trace && workload.options.chamber_pool_workers > 0) {
    auto started = StartReplayPool(workload);
    if (!started.ok()) {
      std::cerr << "svcbench: replay pool: " << started.status().ToString()
                << "\n";
      return 1;
    }
    replay_pool = std::move(started).value();
  }

  const double calib_ms = CalibrationLoopMs();
  Tally tally;

  // --- set-up, several times; the last one serves the timed phase -------
  std::vector<double> setup_s;
  std::vector<double> restore_ms;
  SetUp live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.service.reset();  // joins the previous service's threads first
    gupt::Result<SetUp> setup =
        SetUpService(workload, ledger_path, args.seed, &tally);
    if (!setup.ok()) {
      std::cerr << "svcbench: set-up failed: " << setup.status().ToString()
                << "\n";
      return 1;
    }
    live = std::move(setup).value();
    setup_s.push_back(live.seconds);
    restore_ms.push_back(live.restore_ms);
  }
  gupt::GuptService* service = live.service.get();

  std::unique_ptr<Scraper> scraper;
  if (workload.durable) {
    scraper = std::make_unique<Scraper>(service->introspect_port(), kScrapeHz,
                                        DatasetNames(workload));
    scraper->Start();
  }

  // --- the service pass: closed loop through SubmitQueryAsync -----------
  const double service_seconds =
      args.trace ? kTracedServiceShare * args.seconds : args.seconds;
  std::vector<RequestStream> streams = Streams(workload, args.seed + 1);
  const HostTicks ticks_before = ReadHostTicks();
  const LoopResult pass = RunClosedLoop(
      workload, streams, ServiceSubmit(service), For(service_seconds),
      std::numeric_limits<std::size_t>::max(), &tally, &live.acks,
      /*sample_cpu=*/true);
  const HostTicks ticks_after = ReadHostTicks();
  const PassStats stats = Summarize(pass);
  const double steal_ratio =
      RatioOr0(static_cast<double>(ticks_after.steal - ticks_before.steal),
               static_cast<double>(ticks_after.total - ticks_before.total));
  const double busy_ratio =
      RatioOr0(static_cast<double>(ticks_after.busy - ticks_before.busy),
               static_cast<double>(ticks_after.total - ticks_before.total));
  if (!args.trace && pass.latencies_ms.size() < kTailStretch) {
    std::cerr << "svcbench: only " << pass.latencies_ms.size()
              << " queries in the window; latency_p99_ms needs "
              << kTailStretch << "\n";
  }

  // --- ledger checks, before anything else writes the ledger file -------
  std::string why;
  tally.Record(
      CheckLedger(workload, service->BudgetSnapshots(), live.acks, &why),
      "service ledger: " + why);
  if (workload.durable) {
    gupt::ServiceOptions fresh_options;
    fresh_options.ledger_path = ledger_path;
    fresh_options.series_capacity = 0;
    gupt::GuptService fresh(fresh_options,
                            gupt::ProgramRegistry::WithStandardPrograms());
    gupt::Status reloaded = RegisterAll(workload, &fresh);
    if (reloaded.ok()) reloaded = fresh.RestoreLedger();
    why = "reload: " + reloaded.ToString();
    const bool same = reloaded.ok() && SameLedgers(service->BudgetSnapshots(),
                                                   fresh.BudgetSnapshots(),
                                                   &why);
    tally.Record(same, "ledger file reload: " + why);
  }

  std::vector<Metric> metrics;
  std::string diagnostics;
  if (args.trace) {
    metrics = MeasureLayers(workload, args, replay_pool.get(), service, pass,
                            restore_ms, stem, &tally, &diagnostics);
  }
  std::vector<double> scrape_ms, late_ms;
  if (scraper) {
    scraper->Stop();
    scrape_ms = scraper->latency_ms();
    late_ms = scraper->late_ms();
    const std::vector<std::string>& errors = scraper->errors();
    for (std::size_t i = 0; i < scraper->attempted(); ++i) {
      tally.Record(i >= errors.size(), i < errors.size() ? errors[i] : "");
    }
  }
  if (args.trace) {
    metrics.insert(metrics.end(),
                   {{"obs.budgetz_scrape_ms", Quantile(scrape_ms, 0.5), "ms"},
                    {"obs.scrape_late_ms", Quantile(late_ms, 0.5), "ms"},
                    {"host.steal_ratio", steal_ratio, "ratio"},
                    {"host.busy_ratio", busy_ratio, "ratio"},
                    {"host.calib_ms", calib_ms, "ms"}});
  } else {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"qps", stats.qps, "1/s"},
        {"latency_p50_ms", stats.p50_ms, "ms"},
        {"latency_p99_ms", stats.p99_ms, "ms"},
        {"cpu_ms_per_query", stats.cpu_ms_per_query, "ms"},
        {"rss_peak_mb", PeakRssMb(), "MB"},
    };
  }
  live.service.reset();
  std::remove(ledger_path.c_str());

  // Host diagnostics: not gated, recorded beside the metrics so a noisy
  // host can be told apart from a program change.
  const std::string host =
      "{\"workload\": \"" + workload.name + "\", \"seed\": " +
      std::to_string(args.seed) + ", \"window_queries\": " +
      std::to_string(pass.latencies_ms.size()) +
      ", \"setup_s\": " + JsonNumbers(setup_s) +
      ", \"host_steal_ratio\": " + Number(steal_ratio) +
      ", \"host_busy_ratio\": " + Number(busy_ratio) +
      ", \"calib_ms\": " + Number(calib_ms) +
      ", \"window_qps\": " + JsonNumbers(stats.window_qps) +
      ", \"failures\": " + JsonStrings(tally.reasons) + diagnostics + "}";
  std::string result = "{\"correct\": ";
  result += tally.failed == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(tally.attempted) +
            ", \"failed\": " + std::to_string(tally.failed) +
            ", \"metrics\": " + MetricsJson(metrics) + "}";
  WriteFile(stem + "-result.json",
            "{\"diagnostics\": " + host + ", \"result\": " + result + "}\n");
  std::cout << "diagnostics " << host << "\n" << result << std::endl;
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  std::optional<svcbench::Args> args = svcbench::ParseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: svcbench --workload {";
    for (const std::string& name : svcbench::WorkloadNames()) {
      std::cerr << " " << name;
    }
    std::cerr << " } --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  return svcbench::Run(*args);
}
