#include "service/gupt_service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "data/budget_store.h"
#include "obs/introspect/trace_event.h"
#include "obs/json.h"
#include "obs/prof/profiler.h"
#include "obs/series/render.h"
#include "obs/trace.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

using obs::JsonEscape;
using obs::JsonNumber;

/// The analyst name records carry for a request that gave none.
std::string AnalystOrAnonymous(const std::string& analyst) {
  return analyst.empty() ? "<anonymous>" : analyst;
}

/// An audit record with the six fields every record carries; `outcome`
/// fills `accepted` and `status`.
AuditRecord NewAuditRecord(const std::string& analyst,
                           const std::string& dataset,
                           const std::string& program,
                           double epsilon_requested, const Status& outcome) {
  AuditRecord record;
  record.analyst = AnalystOrAnonymous(analyst);
  record.dataset = dataset;
  record.program = program;
  record.epsilon_requested = epsilon_requested;
  record.accepted = outcome.ok();
  record.status = outcome.ToString();
  return record;
}

/// Serialises a ProgramSpec into the opaque token a pool worker resolves
/// back through its captured registry. Newline-delimited: program names
/// and parameter keys/values never contain newlines (they come from
/// textual request fields), and params is an ordered map so equal specs
/// produce equal tokens.
std::string ProgramToken(const ProgramSpec& spec) {
  std::string token = spec.name;
  for (const auto& [key, value] : spec.params) {
    token += '\n';
    token += key;
    token += '=';
    token += value;
  }
  return token;
}

/// Inverse of ProgramToken, evaluated inside the pool worker.
Result<ProgramSpec> ParseProgramToken(const std::string& token) {
  ProgramSpec spec;
  std::stringstream stream(token);
  if (!std::getline(stream, spec.name) || spec.name.empty()) {
    return Status::InvalidArgument("pool program token has no program name");
  }
  std::string line;
  while (std::getline(stream, line)) {
    std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("pool program token param is not k=v: " +
                                     line);
    }
    spec.params[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return spec;
}

}  // namespace

GuptService::GuptService(ServiceOptions options, ProgramRegistry registry)
    : options_(std::move(options)),
      registry_(std::move(registry)),
      trace_ring_(options_.trace_ring_capacity) {
  // The service is the process's long-lived entry point, so it owns env
  // arming (once per process; a no-op for later instances and when the
  // variable is unset).
  failpoints::ArmFromEnvironment();
  if (!options_.ledger_path.empty()) {
    ledger_journal_ = std::make_unique<LedgerJournal>(options_.ledger_path);
  }
  if (options_.chamber_pool_workers > 0) {
    // Forked HERE, before the admission pool, SVT registry, or the
    // introspection server create any thread: the pool's fork safety
    // contract ("from a single-threaded point") holds by construction.
    chamber_pool_ = std::make_unique<ChamberPool>(
        options_.runtime.chamber_policy, options_.chamber_pool_workers);
    chamber_pool_->SetProgramResolver(
        // Captures a copy of the vetted registry by value: the worker
        // resolves tokens against the same program set the parent
        // validated at admission, with no shared mutable state.
        [registry = registry_](const std::string& token)
            -> Result<ProgramFactory> {
          GUPT_ASSIGN_OR_RETURN(ProgramSpec spec, ParseProgramToken(token));
          return registry.Build(spec);
        });
    Status started = chamber_pool_->Start();
    if (started.ok()) {
      options_.runtime.chamber_pool = chamber_pool_.get();
    } else {
      // Degraded but correct: queries fall back to the fork/in-thread
      // chamber paths with identical DP semantics.
      GUPT_LOG(kError) << "chamber pool failed to start ("
                       << started.ToString()
                       << "); falling back to per-block chambers";
      chamber_pool_.reset();
    }
  }
  runtime_ = std::make_unique<GuptRuntime>(&manager_, options_.runtime);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics_.requests_accepted = metrics.GetCounter(
      "gupt_service_requests_total", "Query requests by outcome.",
      {{"outcome", "accepted"}});
  metrics_.requests_refused = metrics.GetCounter(
      "gupt_service_requests_total", "Query requests by outcome.",
      {{"outcome", "refused"}});
  metrics_.requests_cached = metrics.GetCounter(
      "gupt_service_requests_total", "Query requests by outcome.",
      {{"outcome", "cached"}});
  metrics_.admission_rejected = metrics.GetCounter(
      "gupt_service_admission_rejected_total",
      "Submissions refused because the admission queue was full.");
  metrics_.admission_queue_depth = metrics.GetGauge(
      "gupt_service_admission_queue_depth",
      "Queries admitted but not yet answered (queued + running).");
  metrics_.cache_evictions = metrics.GetCounter(
      "gupt_service_cache_evictions_total",
      "Query-cache entries evicted by the LRU capacity bound.");
  metrics_.audit_records = metrics.GetCounter(
      "gupt_service_audit_records_total",
      "Audit records ever written (survives ring-buffer rotation).");
  metrics_.traces_recorded = metrics.GetCounter(
      "gupt_introspect_traces_total",
      "Completed query traces pushed into the /tracez ring.");
  metrics_.traces_retained = metrics.GetGauge(
      "gupt_introspect_traces_retained_count",
      "Completed query traces currently retained for /tracez.");
  metrics_.profile_requests_ok = metrics.GetCounter(
      "gupt_prof_profile_requests_total", "/profilez captures by outcome.",
      {{"outcome", "ok"}});
  metrics_.profile_requests_busy = metrics.GetCounter(
      "gupt_prof_profile_requests_total", "/profilez captures by outcome.",
      {{"outcome", "busy"}});
  metrics_.profile_requests_error = metrics.GetCounter(
      "gupt_prof_profile_requests_total", "/profilez captures by outcome.",
      {{"outcome", "error"}});
  metrics_.samples_recorded = metrics.GetCounter(
      "gupt_prof_samples_recorded_total",
      "Stack samples captured by completed /profilez requests.");
  metrics_.samples_dropped = metrics.GetCounter(
      "gupt_prof_samples_dropped_total",
      "Stack samples lost to a full profiler buffer.");
  metrics_.slow_queries = metrics.GetCounter(
      "gupt_prof_slow_queries_total",
      "Completed queries retained (at least momentarily) by /slowz.");
  if (options_.slow_query_log_capacity > 0) {
    slow_query_log_ = std::make_unique<obs::prof::SlowQueryLog>(
        options_.slow_query_log_capacity,
        options_.slow_query_threshold_seconds);
  }
  SvtRegistryOptions svt_options;
  svt_options.capacity = options_.svt_session_capacity;
  svt_options.idle_timeout =
      std::chrono::milliseconds(options_.svt_idle_timeout_ms);
  // SVT noise shares the master seed but forks a dedicated stream band, so
  // session randomness is reproducible yet independent of the one-shot path.
  svt_sessions_ = std::make_unique<SvtSessionRegistry>(
      svt_options, &manager_, &trace_ring_, options_.runtime.seed);
  if (options_.series_capacity > 0) {
    series_store_ =
        std::make_unique<obs::series::SeriesStore>(options_.series_capacity);
    alert_engine_ = std::make_unique<obs::series::AlertRuleEngine>(&metrics);
    obs::series::BuiltinRuleOptions rule_options;
    rule_options.budget_horizon_seconds = options_.budget_alert_horizon_seconds;
    rule_options.collector_period_ms = options_.collector_period_ms;
    rule_options.window_ms = options_.series_window_ms;
    rule_options.admission_queue_capacity = options_.admission_queue_capacity;
    rule_options.svt_session_capacity = options_.svt_session_capacity;
    rule_options.chamber_pool_enabled = chamber_pool_ != nullptr;
    for (obs::series::AlertRule& rule :
         obs::series::BuiltinAlertRules(rule_options)) {
      alert_engine_->AddRule(std::move(rule));
    }
    obs::series::SeriesCollectorOptions collector_options;
    collector_options.period_ms = options_.collector_period_ms;
    collector_options.forecast_window_ms = options_.series_window_ms;
    collector_options.registry = &metrics;
    collector_options.budget_source = [this] { return BudgetStatsForSeries(); };
    collector_options.qid_source = [] { return obs::LastQueryId(); };
    // Fault sites, wired through obs-layer hooks (obs sits below testing/
    // and must stay failpoint-free). The collector only reads the ledgers,
    // so a fired gate skips a tick and nothing else — crash is treated as
    // error here because aborting the process from an observer thread is
    // the one thing a sampler must never do.
    collector_options.on_collect = [] {
      return failpoints::Eval("service.series.collect") ==
             failpoints::FireAction::kNone;
    };
    collector_options.on_evaluate = [] {
      return failpoints::Eval("service.series.evaluate") ==
             failpoints::FireAction::kNone;
    };
    collector_ = std::make_unique<obs::series::SeriesCollector>(
        std::move(collector_options), series_store_.get(),
        alert_engine_.get());
    collector_->Start();
  }
  admission_pool_ = std::make_unique<ThreadPool>(
      options_.admission_workers > 0 ? options_.admission_workers : 1);
  if (options_.introspect_port >= 0) {
    Result<int> started = StartIntrospection(options_.introspect_port);
    if (!started.ok()) {
      GUPT_LOG(kError) << "introspection server failed to start: "
                       << started.status().ToString();
    }
  }
}

GuptService::~GuptService() {
  // Stop serving scrapes before draining: a request that arrives during
  // teardown must not observe a half-destroyed service.
  StopIntrospection();
  // Stop the sampler before the admission drain: a tick in progress
  // completes (Stop joins), and no tick can start while queued queries
  // finish against a service that is shutting down.
  if (collector_ != nullptr) collector_->Stop();
  // The pool's destructor drains the queue, so every future returned by
  // SubmitQueryAsync completes before the members it references go away.
  admission_pool_.reset();
}

Result<int> GuptService::StartIntrospection(int port) {
  std::lock_guard<std::mutex> lock(introspect_mu_);
  if (introspect_ != nullptr && introspect_->serving()) {
    return Status::AlreadyExists("introspection server already on port " +
                                 std::to_string(introspect_->port()));
  }
  obs::introspect::HttpServerOptions server_options;
  server_options.port = port;
  server_options.handler_threads =
      options_.introspect_handler_threads > 0
          ? options_.introspect_handler_threads
          : 1;
  // Fault site for the accept loop, wired through the obs-layer hook (the
  // obs layer sits below testing/ and must stay failpoint-free). A fired
  // failpoint drops the connection unanswered — the client sees a reset,
  // as if the listener were wedged.
  server_options.on_accept = [] {
    return failpoints::Eval("service.introspect.accept") ==
           failpoints::FireAction::kNone;
  };
  auto server = std::make_unique<obs::introspect::HttpServer>(server_options);
  InstallIntrospectionHandlers(server.get());
  std::string error;
  if (!server->Start(&error)) {
    return Status::Internal("introspection server failed to bind: " + error);
  }
  introspect_ = std::move(server);
  profilez_cancel_.store(false, std::memory_order_release);
  GUPT_LOG(kInfo) << "introspection server serving on 127.0.0.1:"
                  << introspect_->port();
  return introspect_->port();
}

void GuptService::StopIntrospection() {
  // Cancel any in-flight /profilez capture first: Stop() joins the handler
  // threads, and the capture sleeps in chunks checking this flag.
  profilez_cancel_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(introspect_mu_);
  if (introspect_ != nullptr) introspect_->Stop();
}

int GuptService::introspect_port() const {
  std::lock_guard<std::mutex> lock(introspect_mu_);
  return introspect_ != nullptr && introspect_->serving() ? introspect_->port()
                                                          : -1;
}

bool GuptService::Healthy(std::string* reason) const {
  if (admission_pool_ == nullptr) {
    if (reason != nullptr) *reason = "admission pool not running (draining)";
    return false;
  }
  const std::size_t capacity = options_.admission_queue_capacity;
  const std::size_t depth =
      admission_in_flight_.load(std::memory_order_acquire);
  if (capacity > 0 && depth >= capacity) {
    if (reason != nullptr) {
      *reason = "admission queue full (" + std::to_string(depth) + "/" +
                std::to_string(capacity) + ")";
    }
    return false;
  }
  if (reason != nullptr) reason->clear();
  return true;
}

bool GuptService::Degraded(std::string* reason) const {
  std::vector<std::string> reasons;
  std::string storm;
  if (PoolRespawnStorm(&storm)) reasons.push_back(storm);
  if (alert_engine_ != nullptr) {
    for (const std::string& name :
         alert_engine_->FiringNames(obs::series::AlertSeverity::kCritical)) {
      reasons.push_back("critical alert firing: " + name);
    }
  }
  if (reasons.empty()) {
    if (reason != nullptr) reason->clear();
    return false;
  }
  if (reason != nullptr) {
    reason->clear();
    for (std::size_t i = 0; i < reasons.size(); ++i) {
      if (i > 0) *reason += "; ";
      *reason += reasons[i];
    }
  }
  return true;
}

bool GuptService::PoolRespawnStorm(std::string* detail) const {
  if (chamber_pool_ == nullptr || series_store_ == nullptr) return false;
  const std::int64_t latest = series_store_->LatestTimestampNs();
  if (latest == 0) return false;
  const std::int64_t min_t_ns = latest - options_.series_window_ms * 1000000;
  std::vector<obs::series::SeriesPoint> respawns = series_store_->Points(
      "gupt_chamber_pool_respawns_total:rate", min_t_ns);
  std::vector<obs::series::SeriesPoint> leases = series_store_->Points(
      "gupt_chamber_pool_leases_total:rate", min_t_ns);
  if (respawns.empty() || leases.empty()) return false;
  double respawn_mean = 0.0;
  for (const auto& p : respawns) respawn_mean += p.value;
  respawn_mean /= static_cast<double>(respawns.size());
  double lease_mean = 0.0;
  for (const auto& p : leases) lease_mean += p.value;
  lease_mean /= static_cast<double>(leases.size());
  // A steady crash-every-lease storm has respawns = leases - workers
  // (the initial workers never respawned), so the ratio approaches 1
  // from below; half of all leases needing a respawn is already a storm.
  if (respawn_mean <= 0.0 || respawn_mean < 0.5 * lease_mean) return false;
  if (detail != nullptr) {
    std::ostringstream out;
    out.precision(3);
    out << "chamber pool respawn storm (" << respawn_mean
        << " respawns/s vs " << lease_mean
        << " leases/s over last " << (options_.series_window_ms / 1000)
        << "s; crashed leases are falling back to fork)";
    *detail = out.str();
  }
  return true;
}

std::vector<obs::series::BudgetStat> GuptService::BudgetStatsForSeries()
    const {
  std::vector<obs::series::BudgetStat> out;
  for (const DatasetBudgetTotals& entry : manager_.BudgetTotalsSnapshot()) {
    obs::series::BudgetStat stat;
    stat.dataset = entry.dataset;
    stat.total_epsilon = entry.totals.total_epsilon;
    stat.spent_epsilon = entry.totals.spent_epsilon;
    stat.num_charges = entry.totals.num_charges;
    out.push_back(std::move(stat));
  }
  return out;
}

std::string GuptService::HealthzBody(bool healthy, const std::string& reason,
                                     bool verbose) const {
  std::ostringstream out;
  std::string degraded_reason;
  const bool degraded = healthy && Degraded(&degraded_reason);
  if (!healthy) {
    out << reason << "\n";
  } else if (degraded) {
    out << "degraded: " << degraded_reason << "\n";
  } else {
    out << "ok\n";
  }
  if (!verbose) return out.str();
  out << "admission: depth="
      << admission_in_flight_.load(std::memory_order_acquire)
      << " capacity=" << options_.admission_queue_capacity << "\n";
  if (chamber_pool_ != nullptr) {
    const ChamberPoolStats stats = chamber_pool_->Stats();
    std::string storm;
    out << "chamber_pool: workers_alive=" << stats.workers_alive
        << " leases=" << stats.leases << " resets=" << stats.resets
        << " respawns=" << stats.respawns << " respawn_storm="
        << (PoolRespawnStorm(&storm) ? "yes" : "no") << "\n";
  } else {
    out << "chamber_pool: disabled\n";
  }
  if (alert_engine_ != nullptr) {
    std::vector<std::string> firing =
        alert_engine_->FiringNames(obs::series::AlertSeverity::kInfo);
    std::vector<std::string> critical =
        alert_engine_->FiringNames(obs::series::AlertSeverity::kCritical);
    out << "alerts: firing=" << firing.size() << " critical="
        << critical.size();
    for (const std::string& name : firing) out << " " << name;
    out << "\n";
    out << "collector: ticks=" << (collector_ != nullptr ? collector_->Ticks() : 0)
        << " period_ms=" << options_.collector_period_ms << " series="
        << series_store_->NumSeries() << "\n";
  } else {
    out << "alerts: disabled\n";
  }
  return out.str();
}

void GuptService::InstallIntrospectionHandlers(
    obs::introspect::HttpServer* server) {
  using obs::introspect::HttpRequest;
  using obs::introspect::HttpResponse;
  server->Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::MetricsRegistry::Get().ExportPrometheus();
    return response;
  });
  server->Handle("/varz", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = obs::MetricsRegistry::Get().ExportJson();
    return response;
  });
  server->Handle("/healthz", [this](const HttpRequest& request) {
    HttpResponse response;
    const bool verbose = request.Param("verbose", "0") == "1";
    std::string reason;
    const bool healthy = Healthy(&reason);
    if (!healthy) response.status = 503;
    response.body = HealthzBody(healthy, reason, verbose);
    return response;
  });
  server->Handle("/timeseriesz", [this](const HttpRequest& request) {
    HttpResponse response;
    if (series_store_ == nullptr) {
      response.status = 404;
      response.body = "time-series collector disabled (series_capacity=0)\n";
      return response;
    }
    obs::series::RenderInfo info;
    info.period_ms = options_.collector_period_ms;
    info.capacity = options_.series_capacity;
    info.ticks = collector_ != nullptr ? collector_->Ticks() : 0;
    const std::string name = request.Param("name", "");
    const double window = std::atof(request.Param("window", "0").c_str());
    if (request.Param("format", "text") == "json") {
      response.content_type = "application/json";
      response.body =
          obs::series::TimeserieszJson(*series_store_, name, window, info);
    } else {
      response.body =
          obs::series::TimeserieszText(*series_store_, name, window, info);
    }
    return response;
  });
  server->Handle("/alertz", [this](const HttpRequest& request) {
    HttpResponse response;
    if (alert_engine_ == nullptr) {
      response.status = 404;
      response.body = "alert engine disabled (series_capacity=0)\n";
      return response;
    }
    if (request.Param("format", "text") == "json") {
      response.content_type = "application/json";
      response.body = obs::series::AlertzJson(*alert_engine_);
    } else {
      response.body = obs::series::AlertzText(*alert_engine_);
    }
    return response;
  });
  server->Handle("/budgetz", [this](const HttpRequest& request) {
    HttpResponse response;
    if (request.Param("format", "text") == "json") {
      response.content_type = "application/json";
      response.body = BudgetzJson();
    } else {
      response.body = BudgetzText();
    }
    return response;
  });
  server->Handle("/tracez", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body =
        obs::introspect::ExportChromeTrace(trace_ring_.Snapshot());
    return response;
  });
  server->Handle("/svtz", [this](const HttpRequest& request) {
    HttpResponse response;
    if (request.Param("format", "text") == "json") {
      response.content_type = "application/json";
      response.body = SvtzJson();
    } else {
      response.body = SvtzText();
    }
    return response;
  });
  server->Handle("/slowz", [this](const HttpRequest& request) {
    HttpResponse response;
    if (slow_query_log_ == nullptr) {
      response.status = 404;
      response.body = "slow-query log disabled (slow_query_log_capacity=0)\n";
      return response;
    }
    if (request.Param("format", "text") == "json") {
      response.content_type = "application/json";
      response.body = SlowzJson();
    } else {
      response.body = SlowzText();
    }
    return response;
  });
  server->Handle("/profilez", [this](const HttpRequest& request) {
    return HandleProfilez(request);
  });
}

obs::introspect::HttpResponse GuptService::HandleProfilez(
    const obs::introspect::HttpRequest& request) {
  obs::introspect::HttpResponse response;
  // Fault site: a fired /profilez failpoint models the capture machinery
  // breaking mid-request. The handler answers 503 without arming the
  // timer, so queries in flight and later captures are unaffected.
  if (failpoints::Eval("service.introspect.profilez") !=
      failpoints::FireAction::kNone) {
    metrics_.profile_requests_error->Increment();
    response.status = 503;
    response.body =
        failpoints::InjectedMessage("service.introspect.profilez") + "\n";
    return response;
  }

  char* end = nullptr;
  const std::string seconds_param = request.Param("seconds", "1");
  double seconds = std::strtod(seconds_param.c_str(), &end);
  if (end == seconds_param.c_str() || *end != '\0' || !(seconds > 0)) {
    metrics_.profile_requests_error->Increment();
    response.status = 400;
    response.body = "bad ?seconds= (want a positive number)\n";
    return response;
  }
  const std::string hz_param = request.Param("hz", "99");
  long hz = std::strtol(hz_param.c_str(), &end, 10);
  if (end == hz_param.c_str() || *end != '\0' || hz < 1 || hz > 1000) {
    metrics_.profile_requests_error->Increment();
    response.status = 400;
    response.body = "bad ?hz= (want an integer in [1,1000])\n";
    return response;
  }
  if (options_.profilez_max_seconds > 0 &&
      seconds > options_.profilez_max_seconds) {
    seconds = options_.profilez_max_seconds;
  }

  obs::prof::ProfilerOptions profiler_options;
  profiler_options.hz = static_cast<int>(hz);
  if (!obs::prof::Profiler::Get().Start(profiler_options)) {
    metrics_.profile_requests_busy->Increment();
    response.status = 503;
    response.body = "profiler busy (another capture is running)\n";
    return response;
  }

  // Sleep out the capture window in short chunks so StopIntrospection can
  // cancel a long capture instead of waiting on this handler thread.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!profilez_cancel_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto remaining = deadline - now;
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            remaining, std::chrono::milliseconds(50)));
  }

  obs::prof::Profile profile = obs::prof::Profiler::Get().Stop();
  metrics_.profile_requests_ok->Increment();
  metrics_.samples_recorded->Increment(
      static_cast<double>(profile.samples.size()));
  metrics_.samples_dropped->Increment(static_cast<double>(profile.dropped));
  response.content_type = "text/plain; charset=utf-8";
  response.body = obs::prof::FoldedStacks(profile);
  return response;
}

std::string GuptService::SlowzJson() const {
  std::ostringstream out;
  out << "{\"capacity\":" << slow_query_log_->capacity()
      << ",\"threshold_seconds\":"
      << JsonNumber(slow_query_log_->threshold_seconds())
      << ",\"queries_considered\":" << slow_query_log_->total_considered()
      << ",\"queries\":[";
  bool first = true;
  for (const obs::prof::SlowQueryEntry& entry :
       slow_query_log_->Snapshot()) {
    if (!first) out << ',';
    first = false;
    const obs::prof::ResourceLedger& res = entry.resources;
    out << "{\"query_id\":" << entry.query_id << ",\"analyst\":\""
        << JsonEscape(entry.analyst) << "\",\"dataset\":\""
        << JsonEscape(entry.dataset) << "\",\"program\":\""
        << JsonEscape(entry.program) << "\",\"status\":\""
        << JsonEscape(entry.status) << "\",\"completed_unix_ms\":"
        << entry.completed_unix_ms
        << ",\"wall_seconds\":" << JsonNumber(entry.wall_seconds)
        << ",\"cpu_seconds\":"
        << JsonNumber(static_cast<double>(res.cpu_ns) / 1e9)
        << ",\"child_cpu_seconds\":"
        << JsonNumber(static_cast<double>(res.child_user_cpu_ns +
                                          res.child_sys_cpu_ns) /
                      1e9)
        << ",\"max_rss_kb\":" << res.max_rss_kb
        << ",\"child_max_rss_kb\":" << res.child_max_rss_kb
        << ",\"minor_faults\":" << res.minor_faults
        << ",\"major_faults\":" << res.major_faults
        << ",\"ctx_switches\":{\"voluntary\":" << res.voluntary_ctx_switches
        << ",\"involuntary\":" << res.involuntary_ctx_switches
        << "},\"stages\":[";
    bool first_stage = true;
    for (const obs::prof::StageBreakdown& stage : entry.stages) {
      if (!first_stage) out << ',';
      first_stage = false;
      out << "{\"name\":\"" << JsonEscape(stage.name)
          << "\",\"wall_seconds\":" << JsonNumber(stage.wall_seconds)
          << ",\"cpu_seconds\":" << JsonNumber(stage.cpu_seconds)
          << ",\"ok\":" << (stage.ok ? "true" : "false") << '}';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::string GuptService::SlowzText() const {
  std::vector<obs::prof::SlowQueryEntry> entries =
      slow_query_log_->Snapshot();
  std::ostringstream out;
  out << "slow queries: " << entries.size() << " retained (capacity "
      << slow_query_log_->capacity() << ", threshold "
      << slow_query_log_->threshold_seconds() << "s, "
      << slow_query_log_->total_considered() << " considered)\n";
  for (const obs::prof::SlowQueryEntry& entry : entries) {
    out << "\nqid=" << entry.query_id << " " << entry.program << " on "
        << entry.dataset << " by " << entry.analyst << "\n"
        << "  status   " << entry.status << "\n"
        << "  wall     " << entry.wall_seconds * 1e3 << "ms\n"
        << "  ledger   " << entry.resources.Summary() << "\n"
        << "  stages:\n";
    for (const obs::prof::StageBreakdown& stage : entry.stages) {
      out << "    " << stage.name << "  wall=" << stage.wall_seconds * 1e3
          << "ms cpu=" << stage.cpu_seconds * 1e3 << "ms"
          << (stage.ok ? "" : " (err)") << "\n";
    }
  }
  return out.str();
}

void GuptService::RecordSlowQuery(const QueryRequest& request,
                                  const QueryReport& report) {
  if (slow_query_log_ == nullptr) return;
  obs::prof::SlowQueryEntry entry;
  entry.query_id = report.trace.query_id();
  entry.analyst = AnalystOrAnonymous(request.analyst);
  entry.dataset = request.dataset;
  entry.program = request.program.name;
  entry.status = "ok";
  entry.wall_seconds = std::chrono::duration<double>(report.elapsed).count();
  entry.resources = report.resources;
  entry.stages.reserve(report.trace.spans().size());
  for (const obs::SpanRecord& span : report.trace.spans()) {
    obs::prof::StageBreakdown stage;
    stage.name = span.name;
    stage.wall_seconds = std::chrono::duration<double>(span.duration).count();
    stage.cpu_seconds =
        span.cpu_ns >= 0 ? static_cast<double>(span.cpu_ns) / 1e9 : 0.0;
    stage.ok = span.ok;
    entry.stages.push_back(std::move(stage));
  }
  entry.completed_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  if (slow_query_log_->Record(std::move(entry))) {
    metrics_.slow_queries->Increment();
  }
}

std::string GuptService::SvtzJson() const {
  std::vector<SvtSessionInfo> sessions = SvtSessions();
  std::ostringstream out;
  out << "{\"sessions\":[";
  bool first = true;
  for (const SvtSessionInfo& info : sessions) {
    if (!first) out << ',';
    first = false;
    out << "{\"session_id\":\"" << JsonEscape(info.session_id) << "\""
        << ",\"analyst\":\"" << JsonEscape(info.analyst) << "\""
        << ",\"dataset\":\"" << JsonEscape(info.dataset) << "\""
        << ",\"threshold\":" << JsonNumber(info.threshold)
        << ",\"epsilon\":" << JsonNumber(info.epsilon)
        << ",\"max_positives\":" << info.max_positives
        << ",\"positives_spent\":" << info.positives_spent
        << ",\"remaining_positives\":" << info.remaining_positives
        << ",\"queries_answered\":" << info.queries_answered
        << ",\"below_answered\":" << info.below_answered
        << ",\"exhausted\":" << (info.exhausted ? "true" : "false")
        << ",\"idle_seconds\":"
        << JsonNumber(std::chrono::duration<double>(info.idle).count())
        << '}';
  }
  out << "]}";
  return out.str();
}

std::string GuptService::SvtzText() const {
  std::vector<SvtSessionInfo> sessions = SvtSessions();
  std::ostringstream out;
  out.precision(17);
  out << "svt sessions: " << sessions.size() << " live\n";
  for (const SvtSessionInfo& info : sessions) {
    out << "\nsession " << info.session_id << "\n"
        << "  analyst             " << info.analyst << "\n"
        << "  dataset             " << info.dataset << "\n"
        << "  threshold           " << info.threshold << "\n"
        << "  epsilon (charged)   " << info.epsilon << "\n"
        << "  positives           " << info.positives_spent << "/"
        << info.max_positives << " spent ("
        << info.remaining_positives << " remaining)\n"
        << "  queries answered    " << info.queries_answered << " ("
        << info.below_answered << " below)\n"
        << "  idle                "
        << std::chrono::duration<double>(info.idle).count() << "s\n";
  }
  return out.str();
}

std::string GuptService::BudgetzJson() const {
  std::ostringstream out;
  out << "{\"datasets\":[";
  bool first_dataset = true;
  for (const auto& dataset : manager_.Registrations()) {
    if (!first_dataset) out << ',';
    first_dataset = false;
    const dp::RecentCharges ledger =
        dataset->accountant().Recent(kBudgetzCharges);
    const dp::BudgetTotals& totals = ledger.totals;
    const AmplificationStats amplification =
        AmplificationTotals(dataset->name());
    out << "{\"dataset\":\"" << JsonEscape(dataset->name()) << "\""
        << ",\"total_epsilon\":" << JsonNumber(totals.total_epsilon)
        << ",\"spent_epsilon\":" << JsonNumber(totals.spent_epsilon)
        << ",\"remaining_epsilon\":" << JsonNumber(totals.remaining_epsilon())
        << ",\"amplification\":{\"queries\":" << amplification.queries
        << ",\"epsilon_raw\":" << JsonNumber(amplification.epsilon_raw)
        << ",\"epsilon_charged\":" << JsonNumber(amplification.epsilon_charged)
        << ",\"epsilon_saved\":" << JsonNumber(amplification.epsilon_saved())
        << '}'
        << ",\"num_charges\":" << totals.num_charges << ",\"charges\":[";
    bool first_charge = true;
    for (const dp::BudgetCharge& charge : ledger.recent) {
      if (!first_charge) out << ',';
      first_charge = false;
      out << "{\"label\":\"" << JsonEscape(charge.label)
          << "\",\"epsilon\":" << JsonNumber(charge.epsilon) << '}';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::string GuptService::BudgetzText() const {
  const std::vector<std::shared_ptr<RegisteredDataset>> datasets =
      manager_.Registrations();
  std::ostringstream out;
  out.precision(17);
  out << "privacy-budget ledger: " << datasets.size() << " dataset(s)\n";
  for (const auto& dataset : datasets) {
    const dp::RecentCharges ledger =
        dataset->accountant().Recent(kBudgetzCharges);
    const dp::BudgetTotals& totals = ledger.totals;
    out << "\ndataset " << dataset->name() << "\n"
        << "  epsilon total     " << totals.total_epsilon << "\n"
        << "  epsilon spent     " << totals.spent_epsilon << "\n"
        << "  epsilon remaining " << totals.remaining_epsilon() << "\n";
    const AmplificationStats amplification =
        AmplificationTotals(dataset->name());
    if (amplification.queries > 0) {
      out << "  amplified queries " << amplification.queries
          << " (epsilon raw " << amplification.epsilon_raw << ", charged "
          << amplification.epsilon_charged << ", saved "
          << amplification.epsilon_saved() << ")\n";
    }
    out << "  charges (" << totals.num_charges << "):\n";
    // Numbered by position in the whole ledger, newest last.
    std::size_t index = totals.num_charges - ledger.recent.size();
    if (index > 0) out << "    (" << index << " earlier charges not listed)\n";
    for (const dp::BudgetCharge& charge : ledger.recent) {
      out << "    [" << ++index << "] epsilon=" << charge.epsilon << "  "
          << charge.label << "\n";
    }
  }
  return out.str();
}

std::string GuptService::DumpMetrics(MetricsFormat format) {
  return format == MetricsFormat::kPrometheus
             ? obs::MetricsRegistry::Get().ExportPrometheus()
             : obs::MetricsRegistry::Get().ExportJson();
}

Status GuptService::RegisterDataset(const std::string& name, Dataset data,
                                    DatasetOptions dataset_options) {
  return manager_.Register(name, std::move(data), std::move(dataset_options));
}

Result<double> GuptService::RemainingBudget(const std::string& name) const {
  GUPT_ASSIGN_OR_RETURN(auto ds, manager_.Get(name));
  return ds->accountant().remaining_epsilon();
}

std::vector<std::string> GuptService::ListPrograms() const {
  return registry_.ListPrograms();
}

std::vector<std::string> GuptService::ListDatasets() const {
  return manager_.ListNames();
}

std::vector<AuditRecord> GuptService::audit_log() const {
  std::lock_guard<std::mutex> lock(audit_mu_);
  return {audit_log_.begin(), audit_log_.end()};
}

GuptService::AmplificationStats GuptService::AmplificationTotals(
    const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(amplification_mu_);
  auto it = amplification_stats_.find(dataset);
  return it == amplification_stats_.end() ? AmplificationStats{} : it->second;
}

Status GuptService::RestoreLedger() {
  if (ledger_journal_ == nullptr) {
    return Status::InvalidArgument("service has no ledger_path configured");
  }
  Status loaded = ledger_journal_->Load(&manager_);
  if (loaded.code() == StatusCode::kNotFound) {
    return Status::OK();  // first boot: nothing to restore
  }
  return loaded;
}

Status GuptService::PersistLedger() const {
  if (ledger_journal_ == nullptr) {
    return Status::InvalidArgument("service has no ledger_path configured");
  }
  return ledger_journal_->Persist(manager_);
}

Result<QueryReport> GuptService::Execute(const QueryRequest& request) {
  GUPT_ASSIGN_OR_RETURN(ProgramFactory program,
                        registry_.Build(request.program));
  QuerySpec spec;
  spec.program = std::move(program);
  spec.epsilon = request.epsilon;
  spec.accuracy_goal = request.accuracy_goal;
  switch (request.range_mode) {
    case RangeMode::kTight:
      spec.range = OutputRangeSpec::Tight(request.output_ranges);
      break;
    case RangeMode::kLoose:
      spec.range = OutputRangeSpec::Loose(request.output_ranges);
      break;
    case RangeMode::kHelper:
      return Status::InvalidArgument(
          "helper mode requires a code-level range translator; use the "
          "library API");
  }
  spec.block_size = request.block_size;
  spec.optimize_block_size = request.optimize_block_size;
  spec.gamma = request.gamma;
  spec.records_per_user = request.records_per_user;
  spec.amplification = request.amplification.value_or(options_.amplification);
  spec.amplification_rate = request.amplification_rate.has_value()
                                ? request.amplification_rate
                                : options_.amplification_rate;
  if (chamber_pool_ != nullptr) {
    // Every registry program is resolvable inside the workers (they
    // captured a copy of the same registry), so pooled execution applies
    // to all service queries.
    spec.pool_program = ProgramToken(request.program);
  }
  return runtime_->Execute(request.dataset, spec);
}

std::string GuptService::CacheKey(const QueryRequest& request) const {
  if (!request.epsilon.has_value()) return "";  // goal-driven: not cacheable
  std::ostringstream key;
  key.precision(17);
  key << request.dataset << '\x1f' << request.program.name;
  for (const auto& [k, v] : request.program.params) {
    key << '\x1f' << k << '=' << v;
  }
  key << '\x1f' << *request.epsilon << '\x1f'
      << static_cast<int>(request.range_mode);
  for (const Range& r : request.output_ranges) {
    key << '\x1f' << r.lo << ',' << r.hi;
  }
  key << '\x1f' << (request.block_size ? *request.block_size : 0) << '\x1f'
      << request.optimize_block_size << '\x1f' << request.gamma << '\x1f'
      << request.records_per_user << '\x1f'
      << static_cast<int>(
             request.amplification.value_or(options_.amplification));
  const std::optional<double> rate = request.amplification_rate.has_value()
                                         ? request.amplification_rate
                                         : options_.amplification_rate;
  key << '\x1f' << (rate ? *rate : -1.0);
  return key.str();
}

std::optional<QueryReport> GuptService::CacheLookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = query_cache_.find(key);
  if (it == query_cache_.end()) return std::nullopt;
  // Refresh recency: move the key to the front of the LRU list.
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_position);
  return it->second.report;
}

void GuptService::CacheInsert(const std::string& key,
                              const QueryReport& report) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = query_cache_.find(key);
  if (it != query_cache_.end()) {
    // A concurrent identical query already populated the entry (both
    // executed before either inserted); keep the existing release and
    // just refresh its recency.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_position);
    return;
  }
  cache_lru_.push_front(key);
  query_cache_.emplace(key, CacheEntry{report, cache_lru_.begin()});
  const std::size_t capacity = options_.query_cache_capacity;
  while (capacity > 0 && query_cache_.size() > capacity) {
    query_cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
    metrics_.cache_evictions->Increment();
  }
}

void GuptService::AppendAuditRecord(AuditRecord record) {
  std::lock_guard<std::mutex> lock(audit_mu_);
  record.id = ++audit_next_id_;
  audit_log_.push_back(std::move(record));
  metrics_.audit_records->Increment();
  const std::size_t capacity = options_.audit_log_capacity;
  while (capacity > 0 && audit_log_.size() > capacity) {
    audit_log_.pop_front();
  }
}

void GuptService::AuditAdmissionRefusal(const QueryRequest& request,
                                        const Status& refusal) {
  AppendAuditRecord(NewAuditRecord(request.analyst, request.dataset,
                                   request.program.name,
                                   request.epsilon.value_or(0.0), refusal));
}

Result<QueryReport> GuptService::SubmitQuery(const QueryRequest& request) {
  return SubmitQueryAsync(request).get();
}

std::future<Result<QueryReport>> GuptService::SubmitQueryAsync(
    const QueryRequest& request) {
  auto promise = std::make_shared<std::promise<Result<QueryReport>>>();
  std::future<Result<QueryReport>> future = promise->get_future();

  // Fault site: an injected fire takes the same refusal path as a full
  // queue — audited, counted, nothing charged — so retry-safety claims can
  // be tested without actually saturating the queue.
  if (failpoints::Eval("service.admission.submit") !=
      failpoints::FireAction::kNone) {
    metrics_.requests_refused->Increment();
    Status refusal = Status::Unavailable(
        failpoints::InjectedMessage("service.admission.submit"));
    AuditAdmissionRefusal(request, refusal);
    promise->set_value(refusal);
    return future;
  }

  const std::size_t capacity = options_.admission_queue_capacity;
  std::size_t depth =
      admission_in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (capacity > 0 && depth > capacity) {
    // Refuse instead of blocking: nothing was charged or executed, so the
    // caller can safely retry once the backlog drains.
    admission_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.admission_rejected->Increment();
    metrics_.requests_refused->Increment();
    std::string msg = "admission queue full (capacity ";
    msg += std::to_string(capacity);
    msg += "); retry later";
    Status refusal = Status::Unavailable(std::move(msg));
    AuditAdmissionRefusal(request, refusal);
    promise->set_value(refusal);
    return future;
  }
  metrics_.admission_queue_depth->Set(static_cast<double>(depth));

  admission_pool_->Submit([this, promise, request]() {
    Result<QueryReport> outcome = ProcessQuery(request);
    // Free the queue slot before completing the future so that by the time
    // a submit-and-wait caller resumes, its slot is available again.
    std::size_t remaining =
        admission_in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    metrics_.admission_queue_depth->Set(static_cast<double>(remaining));
    promise->set_value(std::move(outcome));
  });
  return future;
}

Result<QueryReport> GuptService::ProcessQuery(const QueryRequest& request) {
  // Fault site: the query dies on the admission worker after its slot was
  // taken but before any budget is touched. Still audited, so the audit
  // trail stays complete under injected faults.
  if (failpoints::Eval("service.process_query") !=
      failpoints::FireAction::kNone) {
    Status injected =
        Status::Internal(failpoints::InjectedMessage("service.process_query"));
    metrics_.requests_refused->Increment();
    AuditAdmissionRefusal(request, injected);
    return injected;
  }
  const std::string cache_key =
      options_.enable_query_cache ? CacheKey(request) : "";
  bool from_cache = false;
  std::optional<QueryReport> cached;
  if (!cache_key.empty()) {
    cached = CacheLookup(cache_key);
    from_cache = cached.has_value();
  }

  Result<QueryReport> outcome =
      from_cache ? Result<QueryReport>(*cached) : Execute(request);

  AuditRecord record = NewAuditRecord(
      request.analyst, request.dataset, request.program.name,
      request.epsilon.value_or(0.0), outcome.status());
  record.from_cache = from_cache;
  if (outcome.ok() && !from_cache) {
    record.epsilon_charged = outcome->epsilon_spent;
    record.amplification =
        dp::AmplificationModeToString(outcome->amplification);
    record.sampling_rate = outcome->sampling_rate;
    record.epsilon_raw = outcome->epsilon_raw;
    if (outcome->amplification != dp::AmplificationMode::kOff) {
      std::lock_guard<std::mutex> lock(amplification_mu_);
      AmplificationStats& stats = amplification_stats_[request.dataset];
      stats.queries += 1;
      stats.epsilon_raw += outcome->epsilon_raw;
      stats.epsilon_charged += outcome->epsilon_spent;
    }
    record.trace_summary = outcome->trace.Summary();
    record.cpu_seconds =
        static_cast<double>(outcome->resources.cpu_ns) / 1e9;
    record.child_cpu_seconds =
        static_cast<double>(outcome->resources.child_user_cpu_ns +
                            outcome->resources.child_sys_cpu_ns) /
        1e9;
    record.resource_summary = outcome->resources.Summary();
    RecordSlowQuery(request, outcome.value());
  }
  if (from_cache) {
    metrics_.requests_cached->Increment();
  } else {
    (outcome.ok() ? metrics_.requests_accepted : metrics_.requests_refused)
        ->Increment();
  }
  AppendAuditRecord(std::move(record));

  if (outcome.ok() && !from_cache && trace_ring_.capacity() > 0) {
    obs::introspect::CompletedTrace completed;
    completed.query_id = outcome->trace.query_id();
    completed.dataset = request.dataset;
    completed.program = request.program.name;
    completed.analyst = AnalystOrAnonymous(request.analyst);
    completed.ok = true;
    // ProcessQuery runs on an admission worker, so this is the stable pool
    // id of the coordinating thread — the lane stage spans render on.
    completed.coordinator_tid = ThreadPool::CurrentWorkerId();
    completed.completed_at = std::chrono::system_clock::now();
    completed.trace = outcome->trace;
    trace_ring_.Push(std::move(completed));
    metrics_.traces_recorded->Increment();
    metrics_.traces_retained->Set(static_cast<double>(trace_ring_.size()));
  }

  if (outcome.ok() && !from_cache && !options_.ledger_path.empty()) {
    // The ledger write is part of accepting the query: failing to persist
    // means a restart could forget the spend, so surface it as an error —
    // the budget *was* charged and the caller must treat the answer as
    // released.
    Status persisted = PersistLedger();
    if (!persisted.ok()) {
      return Status::Internal("query released but ledger persist failed: " +
                              persisted.message());
    }
  }
  // Cached only once durable: until then a repeat must not be served free
  // (its charge could still be lost to a crash) and must pay again.
  if (!from_cache && outcome.ok() && !cache_key.empty()) {
    CacheInsert(cache_key, outcome.value());
  }
  return outcome;
}

void GuptService::AuditSvtEvent(const std::string& analyst,
                                const std::string& dataset,
                                const std::string& event,
                                double epsilon_requested,
                                double epsilon_charged,
                                const Status& outcome) {
  AuditRecord record =
      NewAuditRecord(analyst, dataset, event, epsilon_requested, outcome);
  record.epsilon_charged = epsilon_charged;
  AppendAuditRecord(std::move(record));
}

Result<SvtSessionInfo> GuptService::OpenSvtSession(
    const SvtSessionRequest& request) {
  // Fault site: an injected fire refuses the open before anything is
  // validated or charged, like a front-door outage.
  if (failpoints::Eval("service.svt.open") != failpoints::FireAction::kNone) {
    Status injected =
        Status::Internal(failpoints::InjectedMessage("service.svt.open"));
    AuditSvtEvent(request.analyst, request.dataset, "svt:open",
                  request.epsilon, 0.0, injected);
    return injected;
  }
  Result<SvtSessionInfo> opened = svt_sessions_->Open(request);
  AuditSvtEvent(request.analyst, request.dataset, "svt:open", request.epsilon,
                opened.ok() ? opened->epsilon : 0.0, opened.status());
  if (!opened.ok()) return opened;
  if (!options_.ledger_path.empty()) {
    // Same contract as the one-shot path: the charge is only durable once
    // the ledger write lands, and the charge was irrevocably taken.
    Status persisted = PersistLedger();
    if (!persisted.ok()) {
      return Status::Internal(
          "svt session opened but ledger persist failed: " +
          persisted.message());
    }
  }
  return opened;
}

Result<SvtQueryResult> GuptService::SvtQuery(
    const std::string& session_id, const SvtCandidateQuery& candidate) {
  // Per-query auditing is deliberately absent: a session answers
  // unboundedly many queries, so the audit log records session lifecycle
  // events and gupt_svt_* metrics count the stream.
  return svt_sessions_->Query(session_id, candidate);
}

Result<SvtBatchResult> GuptService::SvtQueryBatch(
    const std::string& session_id,
    const std::vector<SvtCandidateQuery>& candidates) {
  return svt_sessions_->QueryBatch(session_id, candidates);
}

Status GuptService::CloseSvtSession(const std::string& session_id) {
  if (failpoints::Eval("service.svt.close") !=
      failpoints::FireAction::kNone) {
    // The session stays live: close is retryable and the charge already
    // happened at open, so a failed close moves no budget.
    return Status::Internal(
        failpoints::InjectedMessage("service.svt.close"));
  }
  Status closed = svt_sessions_->Close(session_id);
  AuditSvtEvent("<operator>", session_id, "svt:close", 0.0, 0.0, closed);
  return closed;
}

std::vector<SvtSessionInfo> GuptService::SvtSessions() const {
  return svt_sessions_->Sessions();
}

}  // namespace gupt
