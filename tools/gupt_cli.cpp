// gupt_cli — command-line front end for the GUPT service.
//
// Lets a data owner serve private queries over a CSV table without
// writing any code, with a durable budget ledger so the composition bound
// survives process restarts:
//
//   gupt_cli info     --data table.csv [--header]
//   gupt_cli programs
//   gupt_cli query    --data table.csv [--header] --program mean
//                     [--params dim=0,trim=0.05] --epsilon 0.5
//                     --range 0,150 --budget 5 [--ledger table.ledger]
//                     [--block-size N] [--gamma G] [--mode tight|loose]
//                     [--workers N] [--seed S] [--analyst NAME]
//   gupt_cli svt      --data table.csv [--header] --threshold T
//                     --epsilon E --queries candidates.txt --budget 5
//                     [--c K] [--records-per-user N] [--ledger FILE]
//                     [--seed S] [--analyst NAME]
//   gupt_cli selftest
//
// `query` registers the table under the given total budget, restores any
// prior charges from the ledger file, runs one private query through the
// hosted GuptService (so the attempt is audit-logged), and persists the
// updated ledger. Multi-output programs accept one --range reused for
// every output dimension.
//
// `svt` opens one interactive Sparse Vector session (charged E once,
// however many candidates follow), streams every candidate from the
// queries file through it, and prints ABOVE/below verdicts with the
// positives ranked by their free-gap release. Each line of the queries
// file is `dim,lo,hi[,label]` — the count of rows whose column `dim`
// falls in [lo, hi] is tested against the threshold. `inf`/`-inf` bounds
// and `#` comment lines are accepted.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "data/synthetic.h"
#include "obs/introspect/http_client.h"
#include "obs/prof/profiler.h"
#include "service/gupt_service.h"

namespace gupt {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool has_header = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    std::size_t eq;
    if (arg == "--header") {
      args.has_header = true;
    } else if (arg == "--async") {
      args.options.emplace("async", "1");
    } else if (arg == "--metrics") {
      args.options["metrics"] = "prom";
    } else if (arg == "--json") {
      args.options.emplace("json", "1");
    } else if (arg == "--fail-on-firing") {
      args.options.emplace("fail-on-firing", "1");
    } else if (arg.rfind("--", 0) == 0 &&
               (eq = arg.find('=')) != std::string::npos) {
      args.options[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.options[arg.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// Rejects an unknown --metrics format. Called before the query runs: a
/// typo'd format must fail up front, not after budget has been charged.
bool ValidateMetricsFormat(const Args& args) {
  auto it = args.options.find("metrics");
  if (it == args.options.end() || it->second == "prom" ||
      it->second == "json") {
    return true;
  }
  std::fprintf(stderr, "unknown metrics format: %s (want prom or json)\n",
               it->second.c_str());
  return false;
}

/// Prints the process-global metrics registry when --metrics[=prom|json]
/// was given. Returns false on an unknown format.
bool MaybeDumpMetrics(const Args& args) {
  auto it = args.options.find("metrics");
  if (it == args.options.end()) return true;
  if (it->second == "prom") {
    std::fputs(GuptService::DumpMetrics(MetricsFormat::kPrometheus).c_str(),
               stdout);
  } else if (it->second == "json") {
    std::printf("%s\n", GuptService::DumpMetrics(MetricsFormat::kJson).c_str());
  } else {
    std::fprintf(stderr, "unknown metrics format: %s (want prom or json)\n",
                 it->second.c_str());
    return false;
  }
  return true;
}

Result<std::string> Require(const Args& args, const std::string& key) {
  auto it = args.options.find(key);
  if (it == args.options.end()) {
    return Status::InvalidArgument("missing required option --" + key);
  }
  return it->second;
}

std::string Optional(const Args& args, const std::string& key,
                     const std::string& fallback) {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

Result<Range> ParseRange(const std::string& text) {
  std::size_t comma = text.find(',');
  if (comma == std::string::npos) {
    return Status::InvalidArgument("range must be LO,HI: " + text);
  }
  char* end = nullptr;
  double lo = std::strtod(text.c_str(), &end);
  double hi = std::strtod(text.c_str() + comma + 1, &end);
  if (!(lo <= hi)) {
    return Status::InvalidArgument("range lo > hi: " + text);
  }
  return Range{lo, hi};
}

/// "dim=0,trim=0.05" -> {{"dim","0"},{"trim","0.05"}}.
Result<std::map<std::string, std::string>> ParseParams(
    const std::string& text) {
  std::map<std::string, std::string> params;
  if (text.empty()) return params;
  std::stringstream ss(text);
  std::string field;
  while (std::getline(ss, field, ',')) {
    std::size_t eq = field.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("param must be key=value: " + field);
    }
    params[field.substr(0, eq)] = field.substr(eq + 1);
  }
  return params;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gupt_cli info     --data FILE.csv [--header]\n"
      "  gupt_cli programs\n"
      "  gupt_cli query    --data FILE.csv [--header] --program NAME\n"
      "                    [--params k=v,k=v] --epsilon E --range LO,HI\n"
      "                    --budget TOTAL [--ledger FILE] [--block-size N]\n"
      "                    [--gamma G] [--mode tight|loose] [--workers N]\n"
      "                    [--seed S] [--analyst NAME] [--metrics[=prom|json]]\n"
      "                    [--metrics-out FILE] [--serve PORT]\n"
      "                    [--async] [--queue-depth N] [--pad-deadline-us N]\n"
      "                    [--chamber-pool N] [--amplification-rate=GAMMA]\n"
      "  gupt_cli svt      --data FILE.csv [--header] --threshold T\n"
      "                    --epsilon E --queries FILE --budget TOTAL\n"
      "                    [--c K] [--records-per-user N] [--ledger FILE]\n"
      "                    [--seed S] [--analyst NAME]\n"
      "  gupt_cli profile  --port PORT [--seconds N] [--hz H]\n"
      "                    [--out FILE.folded]\n"
      "  gupt_cli alerts   --port PORT [--json] [--fail-on-firing]\n"
      "  gupt_cli top      --port PORT [--window SECONDS]\n"
      "  gupt_cli selftest\n"
      "\n"
      "profile captures N seconds (default 1) of CPU samples at H Hz\n"
      "(default 99) from a serving gupt process's /profilez endpoint and\n"
      "writes folded stacks to FILE (default gupt.folded) — feed it to\n"
      "FlameGraph's flamegraph.pl or https://speedscope.app.\n"
      "\n"
      "svt answers every candidate in the queries file (lines of\n"
      "`dim,lo,hi[,label]`) through ONE Sparse Vector session: epsilon E\n"
      "is charged once at open, below-threshold verdicts are then free,\n"
      "and the session halts after K ABOVE answers (default 1).\n"
      "\n"
      "--async submits through the service's bounded admission queue\n"
      "(SubmitQueryAsync) and waits on the returned future; --queue-depth\n"
      "bounds that queue (submissions beyond it are refused, not blocked).\n"
      "--serve starts the introspection HTTP server (/metrics, /varz,\n"
      "/healthz, /budgetz, /tracez, /timeseriesz, /alertz) on\n"
      "127.0.0.1:PORT (0 = ephemeral; the bound port is printed) and keeps\n"
      "the process alive after the query until stdin reaches EOF.\n"
      "--collector-period-ms sets the time-series sampling cadence\n"
      "(default 1000). --metrics-out writes the final metrics dump\n"
      "(--metrics format, default prom) to FILE.\n"
      "--amplification-rate enables amplification by sampling\n"
      "(docs/amplification.md): the query runs on a Bernoulli(GAMMA)\n"
      "subsample of the data, GAMMA in (0, 1], and the ledger is debited\n"
      "the amplified epsilon' = ln(1 + GAMMA (e^eps - 1)) while the noise\n"
      "stays calibrated at --epsilon.\n"
      "\n"
      "alerts prints /alertz from a serving process (--fail-on-firing\n"
      "exits 3 when any rule instance is firing); top is a one-shot text\n"
      "dashboard joining /healthz, /budgetz, /alertz and /timeseriesz\n"
      "(--window bounds the series summaries, default 300 s).\n");
  return 2;
}

int RunPrograms() {
  ProgramRegistry registry = ProgramRegistry::WithStandardPrograms();
  for (const std::string& name : registry.ListPrograms()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int RunInfo(const Args& args) {
  auto path = Require(args, "data");
  if (!path.ok()) {
    std::fprintf(stderr, "%s\n", path.status().ToString().c_str());
    return 2;
  }
  auto data = Dataset::FromCsvFile(*path, args.has_header);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("rows: %zu\ndims: %zu\n", data->num_rows(), data->num_dims());
  if (!data->column_names().empty()) {
    std::printf("columns:");
    for (const std::string& name : data->column_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  // Deliberately no per-column min/max/mean: those are private.
  return 0;
}

int RunQuery(const Args& args) {
  auto path = Require(args, "data");
  auto program_name = Require(args, "program");
  auto epsilon_text = Require(args, "epsilon");
  auto range_text = Require(args, "range");
  auto budget_text = Require(args, "budget");
  for (const auto* r :
       {&path, &program_name, &epsilon_text, &range_text, &budget_text}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  if (!ValidateMetricsFormat(args)) return 2;
  auto data = Dataset::FromCsvFile(*path, args.has_header);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto range = ParseRange(*range_text);
  if (!range.ok()) {
    std::fprintf(stderr, "%s\n", range.status().ToString().c_str());
    return 2;
  }
  auto params = ParseParams(Optional(args, "params", ""));
  if (!params.ok()) {
    std::fprintf(stderr, "%s\n", params.status().ToString().c_str());
    return 2;
  }

  ServiceOptions service_options;
  service_options.ledger_path = Optional(args, "ledger", "");
  service_options.runtime.num_workers = static_cast<std::size_t>(
      std::strtoul(Optional(args, "workers", "0").c_str(), nullptr, 10));
  // --chamber-pool N pre-forks N pooled chamber workers at service start;
  // blocks are then leased to warm workers instead of forking per block.
  service_options.chamber_pool_workers = static_cast<std::size_t>(
      std::strtoul(Optional(args, "chamber-pool", "0").c_str(), nullptr, 10));
  // Default to fresh entropy: reusing one noise stream across process
  // invocations would correlate releases (and, if the data changed between
  // runs, leak the difference). --seed exists for reproducible debugging.
  std::string seed_text = Optional(args, "seed", "");
  service_options.runtime.seed =
      seed_text.empty() ? std::random_device{}()
                        : std::strtoull(seed_text.c_str(), nullptr, 10);
  // --pad-deadline-us N pads every block execution to a fixed N-microsecond
  // cycle budget (paper §6.2 timing defence). Besides the side-channel
  // rationale, a driver script can use it to make per-block wall time
  // deterministic regardless of how fast the chambers actually run.
  std::string pad_text = Optional(args, "pad-deadline-us", "");
  if (!pad_text.empty()) {
    long long micros = std::strtoll(pad_text.c_str(), nullptr, 10);
    if (micros <= 0) {
      std::fprintf(stderr, "--pad-deadline-us must be positive\n");
      return 2;
    }
    service_options.runtime.chamber_policy.deadline =
        std::chrono::microseconds(micros);
    service_options.runtime.chamber_policy.pad_to_deadline = true;
  }
  std::string queue_depth_text = Optional(args, "queue-depth", "");
  if (!queue_depth_text.empty()) {
    service_options.admission_queue_capacity = static_cast<std::size_t>(
        std::strtoul(queue_depth_text.c_str(), nullptr, 10));
  }
  const std::string serve_text = Optional(args, "serve", "");
  if (!serve_text.empty()) {
    service_options.introspect_port =
        static_cast<int>(std::strtol(serve_text.c_str(), nullptr, 10));
  }
  // --collector-period-ms N samples metrics + budget ledgers into the
  // /timeseriesz history every N ms (default 1000; smoke tests use ~100
  // so history accumulates fast).
  std::string collector_text = Optional(args, "collector-period-ms", "");
  if (!collector_text.empty()) {
    service_options.collector_period_ms =
        std::strtoll(collector_text.c_str(), nullptr, 10);
  }
  // --amplification-rate=GAMMA runs the query on a Bernoulli(GAMMA)
  // subsample and charges the ledger the amplified
  // epsilon' = ln(1 + GAMMA * (e^eps - 1)) instead of the raw epsilon
  // (dp/amplification.h).
  std::optional<double> amplification_rate;
  std::string amplification_rate_text =
      Optional(args, "amplification-rate", "");
  if (!amplification_rate_text.empty()) {
    char* end = nullptr;
    double rate = std::strtod(amplification_rate_text.c_str(), &end);
    if (end == amplification_rate_text.c_str() || *end != '\0' ||
        !(rate > 0.0) || rate > 1.0) {
      std::fprintf(stderr,
                   "--amplification-rate must be a number in (0, 1]\n");
      return 2;
    }
    amplification_rate = rate;
  }

  GuptService service(service_options,
                      ProgramRegistry::WithStandardPrograms());
  if (!serve_text.empty()) {
    int port = service.introspect_port();
    if (port < 0) {
      std::fprintf(stderr, "introspection server failed to start\n");
      return 1;
    }
    // Machine-readable so a driver script can discover an ephemeral port.
    std::printf("introspection: serving on http://127.0.0.1:%d/\n", port);
    std::fflush(stdout);
  }
  DatasetOptions owner;
  owner.total_epsilon = std::strtod(budget_text->c_str(), nullptr);
  Status registered =
      service.RegisterDataset("cli", std::move(data).value(), owner);
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  if (!service_options.ledger_path.empty()) {
    Status restored = service.RestoreLedger();
    if (!restored.ok()) {
      std::fprintf(stderr, "ledger restore failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }

  QueryRequest request;
  request.analyst = Optional(args, "analyst", "cli");
  request.dataset = "cli";
  request.program.name = *program_name;
  request.program.params = *params;
  request.epsilon = std::strtod(epsilon_text->c_str(), nullptr);
  std::string mode = Optional(args, "mode", "tight");
  if (mode == "tight") {
    request.range_mode = RangeMode::kTight;
  } else if (mode == "loose") {
    request.range_mode = RangeMode::kLoose;
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return 2;
  }
  // The declared range applies to every output dimension; probe the
  // program for its arity.
  auto probe = ProgramRegistry::WithStandardPrograms().Build(request.program);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 2;
  }
  std::size_t output_dims = (*probe)()->output_dims();
  request.output_ranges.assign(output_dims, *range);

  std::string block_text = Optional(args, "block-size", "");
  if (!block_text.empty()) {
    request.block_size = static_cast<std::size_t>(
        std::strtoul(block_text.c_str(), nullptr, 10));
  }
  request.gamma = static_cast<std::size_t>(
      std::strtoul(Optional(args, "gamma", "1").c_str(), nullptr, 10));
  request.amplification_rate = amplification_rate;

  const bool async = args.options.count("async") > 0;
  Result<QueryReport> report =
      async ? service.SubmitQueryAsync(request).get()
            : service.SubmitQuery(request);
  if (!report.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("result          :");
  for (double v : report->output) std::printf(" %.6f", v);
  std::printf("\n");
  std::printf("epsilon spent   : %.4f\n", report->epsilon_spent);
  if (report->sampling_rate.has_value()) {
    std::printf("amplification   : rate=%.6f, epsilon raw %.4f -> "
                "charged %.4f\n",
                *report->sampling_rate, report->epsilon_raw,
                report->epsilon_spent);
  }
  std::printf("budget remaining: %.4f\n",
              service.RemainingBudget("cli").value_or(0.0));
  std::printf("blocks          : %zu x %zu rows (gamma=%zu)\n",
              report->num_blocks, report->block_size, report->gamma);
  std::printf("trace           : %s\n", report->trace.Summary().c_str());
  if (!MaybeDumpMetrics(args)) return 2;

  const std::string metrics_out = Optional(args, "metrics-out", "");
  if (!metrics_out.empty()) {
    const std::string format = Optional(args, "metrics", "prom");
    std::string dump = GuptService::DumpMetrics(
        format == "json" ? MetricsFormat::kJson : MetricsFormat::kPrometheus);
    std::FILE* out = std::fopen(metrics_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics_out.c_str());
      return 1;
    }
    std::fwrite(dump.data(), 1, dump.size(), out);
    std::fclose(out);
    std::printf("metrics: written to %s\n", metrics_out.c_str());
    std::fflush(stdout);
  }

  if (!serve_text.empty()) {
    // Hold the service (and its introspection server) up for scraping
    // until the driver closes our stdin.
    std::printf("serving: close stdin (Ctrl-D) to exit\n");
    std::fflush(stdout);
    while (std::fgetc(stdin) != EOF) {
    }
  }
  return 0;
}

/// Parses one `dim,lo,hi[,label]` line. Blank lines and `#` comments
/// yield an empty result (ok() but no candidate).
Result<std::vector<SvtCandidateQuery>> ParseCandidateFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot read queries file: " + path);
  }
  std::vector<SvtCandidateQuery> candidates;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::stringstream ss(line);
    std::string dim_text, lo_text, hi_text, label;
    if (!std::getline(ss, dim_text, ',') || !std::getline(ss, lo_text, ',') ||
        !std::getline(ss, hi_text, ',')) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": candidate must be dim,lo,hi[,label]: " + line);
    }
    std::getline(ss, label);  // optional; may contain commas
    SvtCandidateQuery candidate;
    char* end = nullptr;
    candidate.dim = static_cast<std::size_t>(
        std::strtoul(dim_text.c_str(), &end, 10));
    candidate.lo = std::strtod(lo_text.c_str(), nullptr);
    candidate.hi = std::strtod(hi_text.c_str(), nullptr);
    candidate.label = label.empty()
                          ? "line" + std::to_string(line_number)
                          : label;
    candidates.push_back(std::move(candidate));
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("queries file has no candidates: " + path);
  }
  return candidates;
}

int RunSvt(const Args& args) {
  auto path = Require(args, "data");
  auto threshold_text = Require(args, "threshold");
  auto epsilon_text = Require(args, "epsilon");
  auto queries_path = Require(args, "queries");
  auto budget_text = Require(args, "budget");
  for (const auto* r :
       {&path, &threshold_text, &epsilon_text, &queries_path, &budget_text}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  auto data = Dataset::FromCsvFile(*path, args.has_header);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto candidates = ParseCandidateFile(*queries_path);
  if (!candidates.ok()) {
    std::fprintf(stderr, "%s\n", candidates.status().ToString().c_str());
    return 2;
  }

  ServiceOptions service_options;
  service_options.introspect_port = -1;
  service_options.ledger_path = Optional(args, "ledger", "");
  std::string seed_text = Optional(args, "seed", "");
  service_options.runtime.seed =
      seed_text.empty() ? std::random_device{}()
                        : std::strtoull(seed_text.c_str(), nullptr, 10);
  GuptService service(service_options,
                      ProgramRegistry::WithStandardPrograms());
  DatasetOptions owner;
  owner.total_epsilon = std::strtod(budget_text->c_str(), nullptr);
  Status registered =
      service.RegisterDataset("cli", std::move(data).value(), owner);
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  if (!service_options.ledger_path.empty()) {
    Status restored = service.RestoreLedger();
    if (!restored.ok()) {
      std::fprintf(stderr, "ledger restore failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }

  SvtSessionRequest session;
  session.analyst = Optional(args, "analyst", "cli");
  session.dataset = "cli";
  session.threshold = std::strtod(threshold_text->c_str(), nullptr);
  session.epsilon = std::strtod(epsilon_text->c_str(), nullptr);
  session.max_positives = static_cast<std::size_t>(
      std::strtoul(Optional(args, "c", "1").c_str(), nullptr, 10));
  session.records_per_user = static_cast<std::size_t>(std::strtoul(
      Optional(args, "records-per-user", "1").c_str(), nullptr, 10));
  auto opened = service.OpenSvtSession(session);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("session         : %s (epsilon %.4f charged once, c=%zu, "
              "threshold %g)\n",
              opened->session_id.c_str(), session.epsilon,
              session.max_positives, session.threshold);

  auto batch = service.SvtQueryBatch(opened->session_id, *candidates);
  if (!batch.ok()) {
    std::fprintf(stderr, "batch failed: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }

  std::printf("%-24s %-8s %s\n", "candidate", "verdict", "gap");
  for (const SvtBatchItem& item : batch->items) {
    if (item.verdict == dp::SvtVerdict::kAbove) {
      std::printf("%-24s %-8s %.3f\n", item.label.c_str(), "ABOVE", item.gap);
    } else {
      std::printf("%-24s %-8s -\n", item.label.c_str(), "below");
    }
  }
  if (batch->exhausted_midway) {
    std::printf("(halted: all %zu positives spent; %zu candidate(s) "
                "unanswered)\n",
                session.max_positives,
                candidates->size() - batch->items.size());
  }

  std::vector<SvtBatchItem> positives;
  for (const SvtBatchItem& item : batch->items) {
    if (item.verdict == dp::SvtVerdict::kAbove) positives.push_back(item);
  }
  std::sort(positives.begin(), positives.end(),
            [](const SvtBatchItem& a, const SvtBatchItem& b) {
              return a.gap > b.gap;
            });
  if (!positives.empty()) {
    std::printf("top-%zu by free gap:\n", positives.size());
    for (std::size_t rank = 0; rank < positives.size(); ++rank) {
      std::printf("  %zu. %s (gap %.3f)\n", rank + 1,
                  positives[rank].label.c_str(), positives[rank].gap);
    }
  }

  // Exhausted sessions auto-close; an explicit close of one is NotFound,
  // which is fine — the charge stays either way.
  (void)service.CloseSvtSession(opened->session_id);
  std::printf("epsilon charged : %.4f (for %zu candidate answers)\n",
              session.epsilon, batch->items.size());
  std::printf("budget remaining: %.4f\n",
              service.RemainingBudget("cli").value_or(0.0));
  return 0;
}

int RunProfile(const Args& args) {
  auto port_text = Require(args, "port");
  if (!port_text.ok()) {
    std::fprintf(stderr, "%s\n", port_text.status().ToString().c_str());
    return 2;
  }
  const int port = std::atoi(port_text->c_str());
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad --port: %s\n", port_text->c_str());
    return 2;
  }
  const std::string seconds = Optional(args, "seconds", "1");
  const std::string hz = Optional(args, "hz", "99");
  const std::string out_path = Optional(args, "out", "gupt.folded");

  const double wait_s = std::strtod(seconds.c_str(), nullptr);
  const int timeout_ms =
      static_cast<int>((wait_s > 0 ? wait_s : 1) * 1000.0) + 10000;
  obs::introspect::HttpGetResult result = obs::introspect::HttpGet(
      "127.0.0.1", port, "/profilez?seconds=" + seconds + "&hz=" + hz,
      timeout_ms);
  if (!result.ok) {
    std::fprintf(stderr, "profile fetch failed: %s\n", result.error.c_str());
    return 1;
  }
  if (result.status != 200) {
    std::fprintf(stderr, "profile refused (HTTP %d): %s", result.status,
                 result.body.c_str());
    return 1;
  }
  const std::int64_t samples = obs::prof::FoldedSampleCount(result.body);
  if (samples < 0) {
    std::fprintf(stderr, "profile payload is not valid folded stacks\n");
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << result.body;
  out.close();
  std::printf("wrote %s: %lld samples over %ss at %s Hz\n", out_path.c_str(),
              static_cast<long long>(samples), seconds.c_str(), hz.c_str());
  std::printf("render: flamegraph.pl %s > flame.svg, or load it in "
              "https://speedscope.app\n",
              out_path.c_str());
  return 0;
}

/// Fetches one introspection path from a serving gupt process.
Result<std::string> FetchIntrospection(const Args& args,
                                       const std::string& path) {
  auto port_text = Require(args, "port");
  if (!port_text.ok()) return port_text.status();
  const int port = std::atoi(port_text->c_str());
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad --port: " + *port_text);
  }
  obs::introspect::HttpGetResult result =
      obs::introspect::HttpGet("127.0.0.1", port, path, 10000);
  if (!result.ok) {
    return Status::Internal("fetch " + path + " failed: " + result.error);
  }
  if (result.status != 200) {
    return Status::Internal("fetch " + path + " refused (HTTP " +
                            std::to_string(result.status) + "): " +
                            result.body);
  }
  return result.body;
}

int RunAlerts(const Args& args) {
  const bool json = args.options.count("json") > 0;
  auto body = FetchIntrospection(
      args, json ? "/alertz?format=json" : "/alertz");
  if (!body.ok()) {
    std::fprintf(stderr, "%s\n", body.status().ToString().c_str());
    return 1;
  }
  std::fputs(body->c_str(), stdout);
  if (args.options.count("fail-on-firing") > 0) {
    // The JSON body spells instance state unambiguously.
    auto status_body =
        json ? body : FetchIntrospection(args, "/alertz?format=json");
    if (status_body.ok() &&
        status_body->find("\"state\":\"firing\"") != std::string::npos) {
      std::fprintf(stderr, "alerts firing\n");
      return 3;
    }
  }
  return 0;
}

int RunTop(const Args& args) {
  // One-shot text dashboard: health, budgets + burn, alerts, series.
  const std::string window = Optional(args, "window", "300");
  struct Section {
    const char* title;
    std::string path;
  };
  const Section sections[] = {
      {"health", "/healthz?verbose=1"},
      {"budgets", "/budgetz"},
      {"alerts", "/alertz"},
      {"series", "/timeseriesz?window=" + window},
  };
  for (const Section& section : sections) {
    auto body = FetchIntrospection(args, section.path);
    std::printf("== %s (%s) ==\n", section.title, section.path.c_str());
    if (!body.ok()) {
      // /healthz answers 503 when unhealthy — still worth printing.
      std::printf("%s\n\n", body.status().ToString().c_str());
      continue;
    }
    std::fputs(body->c_str(), stdout);
    std::printf("\n");
  }
  return 0;
}

int RunSelfTest() {
  // End-to-end smoke: write a CSV, query it twice through a ledger, and
  // verify the third invocation is refused by the restored ledger.
  const std::string csv_path = "/tmp/gupt_cli_selftest.csv";
  const std::string ledger_path = "/tmp/gupt_cli_selftest.ledger";
  std::remove(ledger_path.c_str());

  synthetic::CensusAgeOptions gen;
  gen.num_rows = 5000;
  Dataset ages = synthetic::CensusAges(gen).value();
  csv::Table table;
  table.column_names = {"age"};
  table.rows = ages.MaterializeRows();
  if (!csv::WriteFile(csv_path, table).ok()) return 1;

  auto run_query = [&](const char* epsilon) {
    Args args;
    args.command = "query";
    args.has_header = true;
    args.options = {{"data", csv_path},    {"program", "mean"},
                    {"params", "dim=0"},   {"epsilon", epsilon},
                    {"range", "0,150"},    {"budget", "2"},
                    {"ledger", ledger_path}};
    return RunQuery(args);
  };
  if (run_query("0.9") != 0) return 1;
  if (run_query("0.9") != 0) return 1;
  // 1.8 of 2.0 spent; a third query must be refused by the restored ledger.
  if (run_query("0.9") == 0) {
    std::fprintf(stderr, "selftest: third query should have been refused\n");
    return 1;
  }
  // The runs above flowed through the instrumented pipeline, so the metric
  // dumps must carry the core DP and stage series in both formats.
  std::string prom = GuptService::DumpMetrics(MetricsFormat::kPrometheus);
  std::string json = GuptService::DumpMetrics(MetricsFormat::kJson);
  for (const char* needle :
       {"gupt_dp_epsilon_charged_total", "gupt_runtime_stage_duration_seconds",
        "gupt_exec_block_duration_seconds"}) {
    if (prom.find(needle) == std::string::npos ||
        json.find(needle) == std::string::npos) {
      std::fprintf(stderr, "selftest: metrics dump is missing %s\n", needle);
      return 1;
    }
  }
  std::printf(
      "selftest: ok (ledger enforced the budget across runs; metrics "
      "exported)\n");
  return 0;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  struct Command {
    const char* name;
    int (*run)(const Args&);
    std::set<std::string> options;  // every --key the command reads
  };
  const Command commands[] = {
      {"info", RunInfo, {"data"}},
      {"programs", [](const Args&) { return RunPrograms(); }, {}},
      {"query",
       RunQuery,
       {"amplification-rate", "analyst", "async", "block-size", "budget",
        "chamber-pool", "collector-period-ms", "data", "epsilon", "gamma",
        "ledger", "metrics", "metrics-out", "mode", "pad-deadline-us",
        "params", "program", "queue-depth", "range", "seed", "serve",
        "workers"}},
      {"svt",
       RunSvt,
       {"analyst", "budget", "c", "data", "epsilon", "ledger", "queries",
        "records-per-user", "seed", "threshold"}},
      {"profile", RunProfile, {"hz", "out", "port", "seconds"}},
      {"alerts", RunAlerts, {"fail-on-firing", "json", "port"}},
      {"top", RunTop, {"port", "window"}},
      {"selftest", [](const Args&) { return RunSelfTest(); }, {}},
  };
  for (const Command& command : commands) {
    if (args.command != command.name) continue;
    // A mistyped or retired option (--ledgr, --amplification=raw) must not
    // be silently dropped: refuse it before the command reads any data.
    for (const auto& option : args.options) {
      if (command.options.count(option.first) == 0) {
        std::fprintf(stderr, "unknown option --%s\n", option.first.c_str());
        return 2;
      }
    }
    return command.run(args);
  }
  return Usage();
}

}  // namespace
}  // namespace gupt

int main(int argc, char** argv) { return gupt::Main(argc, argv); }
