// GuptService: the hosted deployment of Figure 2.
//
// Binds together everything a service provider runs: the dataset manager
// (data-owner API), the program registry (vetted computations), the GUPT
// runtime (analyst API), a durable budget ledger, and an audit log of
// every query attempt — accepted or refused — because a DP deployment
// must be able to show, after the fact, exactly where each dataset's
// budget went.
//
// The analyst front door is asynchronous: SubmitQueryAsync places the
// request on a bounded admission queue served by a dedicated worker pool
// and returns a future; SubmitQuery is submit-and-wait over the same
// queue. When the queue is full the service refuses immediately
// (StatusCode::kUnavailable) instead of blocking — backpressure is the
// caller's signal to retry later.

#ifndef GUPT_SERVICE_GUPT_SERVICE_H_
#define GUPT_SERVICE_GUPT_SERVICE_H_

#include <atomic>
#include <deque>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/gupt.h"
#include "data/dataset_manager.h"
#include "dp/amplification.h"
#include "exec/chamber_pool.h"
#include "obs/introspect/http_server.h"
#include "obs/introspect/trace_ring.h"
#include "obs/prof/slow_query_log.h"
#include "obs/series/alerts.h"
#include "obs/series/collector.h"
#include "obs/series/time_series.h"
#include "service/program_registry.h"
#include "service/svt_session.h"

namespace gupt {

class LedgerJournal;

struct ServiceOptions {
  GuptOptions runtime;
  /// When non-empty, the durable budget ledger lives in this file
  /// (data/budget_store.h): RestoreLedger() loads it, and every accepted
  /// query and SVT open is answered only after PersistLedger() has made its
  /// charge durable. The first persist rewrites the file as a snapshot
  /// (tmp + fsync + rename); later ones append a checksummed record per
  /// charge with one fdatasync.
  std::string ledger_path;
  /// Answer repeated *identical* queries from a cache at zero additional
  /// budget. Sound because datasets are immutable and re-releasing the
  /// same value reveals nothing new (post-processing); it stretches the
  /// budget exactly as PINQ's caching does. Cache hits are audit-logged
  /// with epsilon_charged = 0.
  bool enable_query_cache = false;
  /// Upper bound on cached releases; least-recently-used entries are
  /// evicted beyond it (gupt_service_cache_evictions_total counts them).
  /// 0 = unbounded.
  std::size_t query_cache_capacity = 1024;
  /// Upper bound on in-memory audit records (ring-buffer semantics: the
  /// oldest entries rotate out). 0 = unbounded. The monotonically
  /// increasing record ids and gupt_service_audit_records_total reveal
  /// how many records ever existed, so rotation is detectable.
  std::size_t audit_log_capacity = 0;
  /// Pre-warmed chamber-pool workers for per-block program execution.
  /// When > 0 the service forks that many worker processes ONCE at
  /// construction (before any service thread exists) and every registry
  /// program runs on a leased worker instead of paying a fork per block;
  /// crashed workers fall back exactly like crashed ProcessChamber
  /// children and are respawned. 0 keeps the fork-per-block /
  /// in-thread chamber paths.
  std::size_t chamber_pool_workers = 0;
  /// Worker threads serving the admission queue. These are distinct from
  /// the runtime's block-execution workers: an admission worker *waits*
  /// on block fan-outs, so sharing one pool would deadlock.
  std::size_t admission_workers = 2;
  /// Bound on queries admitted but not yet answered (queued + running).
  /// Submissions beyond it are refused with StatusCode::kUnavailable.
  std::size_t admission_queue_capacity = 256;
  /// Port for the embedded introspection HTTP server (/metrics, /varz,
  /// /healthz, /budgetz, /tracez). -1 disables it; 0 binds an ephemeral
  /// port (read back with introspect_port()). Loopback-only.
  int introspect_port = -1;
  /// Handler threads for the introspection server.
  std::size_t introspect_handler_threads = 2;
  /// Completed query traces retained for /tracez (oldest rotate out).
  /// 0 disables trace retention.
  std::size_t trace_ring_capacity = 128;
  /// Upper bound on concurrently live SVT sessions; opens beyond it are
  /// refused with kUnavailable and nothing charged. 0 = unbounded.
  std::size_t svt_session_capacity = 64;
  /// SVT sessions idle longer than this are evicted (their session charge,
  /// being irrevocable, is NOT refunded). 0 disables idle eviction.
  std::size_t svt_idle_timeout_ms = 0;
  /// The K worst-by-wall-time queries retained for /slowz (the worst ever
  /// seen, not the most recent). 0 disables the slow-query log.
  std::size_t slow_query_log_capacity = 16;
  /// Queries faster than this never enter the slow-query log (0 = every
  /// completed query competes for a slot).
  double slow_query_threshold_seconds = 0.0;
  /// Upper bound on one /profilez capture (`?seconds=` is clamped to it);
  /// the handler thread is occupied for the whole capture.
  double profilez_max_seconds = 30.0;
  /// Ring capacity (points per series) for the /timeseriesz history. 0
  /// disables the whole series subsystem: no collector, no forecasts, no
  /// alert engine.
  std::size_t series_capacity = 512;
  /// Sampling cadence of the background SeriesCollector. > 0 starts the
  /// collector thread at construction (stopped before the admission queue
  /// drains at destruction); 0 keeps the subsystem armed but tick-on-
  /// demand only (tests drive series_collector()->TickNow()).
  std::int64_t collector_period_ms = 1000;
  /// Sliding window for burn-rate forecasts, alert aggregation, and the
  /// /healthz chamber-pool degradation check.
  std::int64_t series_window_ms = 60000;
  /// The built-in budget_exhaustion_imminent alert fires when any
  /// dataset's forecasted time-to-exhaustion is at or below this horizon.
  double budget_alert_horizon_seconds = 600.0;
  /// Default amplification-by-sampling charging mode for analyst queries
  /// (dp/amplification.h); a request may override it. kOff keeps the
  /// historical ledger behaviour bit-for-bit. Any non-off mode changes
  /// the mechanism: queries run on a Bernoulli subsample, so a default
  /// amplification_rate (or per-request override) is required too.
  dp::AmplificationMode amplification = dp::AmplificationMode::kOff;
  /// Default Bernoulli rate of the amplification subsample, in (0, 1];
  /// forwarded to QuerySpec::amplification_rate when a query resolves to
  /// a non-off mode and the request carries no rate of its own.
  std::optional<double> amplification_rate;
};

/// One analyst query, expressed entirely in data (no code crosses the
/// service boundary; programs are referenced by registry name).
struct QueryRequest {
  /// Who is asking — recorded in the audit log.
  std::string analyst;
  /// Which registered dataset to query.
  std::string dataset;
  /// Which vetted program to run, with parameters.
  ProgramSpec program;

  /// Exactly one of the two must be set.
  std::optional<double> epsilon;
  std::optional<AccuracyGoal> accuracy_goal;

  /// Output-range declaration. The service API supports tight and loose
  /// modes (helper mode needs a code-level translator, which only the
  /// library API can express).
  RangeMode range_mode = RangeMode::kTight;
  std::vector<Range> output_ranges;

  std::optional<std::size_t> block_size;
  bool optimize_block_size = false;
  std::size_t gamma = 1;
  std::size_t records_per_user = 1;
  /// Per-request amplification mode; unset inherits the service default
  /// (ServiceOptions::amplification).
  std::optional<dp::AmplificationMode> amplification;
  /// Per-request Bernoulli subsample rate; unset inherits the service
  /// default (ServiceOptions::amplification_rate). Required (here or as
  /// the service default) whenever the resolved mode is not off.
  std::optional<double> amplification_rate;
};

/// Audit-log entry for one query attempt.
struct AuditRecord {
  std::size_t id = 0;
  std::string analyst;
  std::string dataset;
  std::string program;
  double epsilon_requested = 0.0;  // 0 when goal-driven
  double epsilon_charged = 0.0;    // 0 when refused or cache-served
  /// Amplification-by-sampling facts of the execution ("off" when the
  /// historical charging path ran; rate/raw are 0 when refused or
  /// cache-served).
  std::string amplification = "off";
  double sampling_rate = 0.0;
  double epsilon_raw = 0.0;
  bool accepted = false;
  bool from_cache = false;
  std::string status;  // Status::ToString() of the outcome
  /// One-line pipeline trace (stage timings + DP gauges) of the execution
  /// that produced this answer; empty when refused or cache-served.
  std::string trace_summary;
  /// Coordinator-thread CPU over the pipeline walk (0 when refused or
  /// cache-served). Sums the per-stage cpu_ns of the trace within clock
  /// granularity — the /tracez, /slowz and audit views agree by
  /// construction, all three being copies of the same ledger.
  double cpu_seconds = 0.0;
  /// Summed process-chamber child CPU (0 for in-thread chambers).
  double child_cpu_seconds = 0.0;
  /// One-line resource ledger (obs::prof::ResourceLedger::Summary());
  /// empty when refused or cache-served.
  std::string resource_summary;
};

/// Export format for DumpMetrics.
enum class MetricsFormat { kPrometheus, kJson };

class GuptService {
 public:
  /// The registry is taken by value (the service owns its vetted set).
  GuptService(ServiceOptions options, ProgramRegistry registry);

  /// Not movable: the runtime holds a pointer to the member dataset
  /// manager, so the object must stay put.
  GuptService(const GuptService&) = delete;
  GuptService& operator=(const GuptService&) = delete;

  /// Drains the admission queue (every returned future completes).
  ~GuptService();

  // --- data-owner API ------------------------------------------------------
  Status RegisterDataset(const std::string& name, Dataset data,
                         DatasetOptions dataset_options);

  /// Remaining budget for a dataset.
  Result<double> RemainingBudget(const std::string& name) const;

  // --- analyst API ---------------------------------------------------------
  /// Validates, executes and audits one query (submit-and-wait over the
  /// admission queue; refuses with kUnavailable when the queue is full).
  Result<QueryReport> SubmitQuery(const QueryRequest& request);

  /// Enqueues one query on the bounded admission queue. The future always
  /// completes: with the report, the refusal, or — when the queue is full
  /// — an immediate StatusCode::kUnavailable (audited, counted by
  /// gupt_service_admission_rejected_total, never blocking).
  std::future<Result<QueryReport>> SubmitQueryAsync(
      const QueryRequest& request);

  // --- interactive (SVT) analyst API ---------------------------------------
  /// Opens a threshold-monitoring session: charges epsilon once to the
  /// dataset's accountant (irrevocable), persists the ledger, audits the
  /// open, and returns the session handle. Refusals charge nothing.
  Result<SvtSessionInfo> OpenSvtSession(const SvtSessionRequest& request);

  /// Answers one candidate query ("is count(dim in [lo,hi]) above tau?")
  /// against a live session. Below-threshold answers cost no budget; the
  /// session auto-closes after its last ABOVE answer.
  Result<SvtQueryResult> SvtQuery(const std::string& session_id,
                                  const SvtCandidateQuery& candidate);

  /// Batch / top-k form: answers candidates in order until the list ends
  /// or the session exhausts its positives. Rank ABOVE items by `gap`.
  Result<SvtBatchResult> SvtQueryBatch(
      const std::string& session_id,
      const std::vector<SvtCandidateQuery>& candidates);

  /// Closes a session explicitly (audited). The session charge stays.
  Status CloseSvtSession(const std::string& session_id);

  /// Live SVT sessions, as served by /svtz.
  std::vector<SvtSessionInfo> SvtSessions() const;

  /// Names of programs analysts may request.
  std::vector<std::string> ListPrograms() const;

  /// Registered dataset names.
  std::vector<std::string> ListDatasets() const;

  // --- operator API --------------------------------------------------------
  /// Copy of the retained audit log, in submission order. With a bounded
  /// `audit_log_capacity` the oldest records may have rotated out; ids
  /// stay monotone so gaps at the front are evident.
  std::vector<AuditRecord> audit_log() const;

  /// Starts the embedded introspection server on `port` (0 = ephemeral)
  /// and returns the bound port. Called automatically at construction when
  /// options.introspect_port >= 0. Errors if already serving or the port
  /// cannot be bound.
  Result<int> StartIntrospection(int port);

  /// Stops the introspection server (idempotent; also runs at destruction
  /// before the admission pool drains, so no scrape can observe a
  /// half-destroyed service).
  void StopIntrospection();

  /// The introspection server's bound port, or -1 when not serving.
  int introspect_port() const;

  /// Readiness: true when the service can accept a query right now —
  /// admission queue not full and the admission pool alive. On false,
  /// *reason (if non-null) says which check failed. Served as /healthz.
  bool Healthy(std::string* reason = nullptr) const;

  /// Soft-failure check: true while the service still answers queries but
  /// something an operator must look at is wrong — the chamber pool stuck
  /// in a respawn storm (every lease falling back to fork) or a critical
  /// alert firing. /healthz stays 200 but reports "degraded: ..." so
  /// load-balancers keep routing while pagers fire.
  bool Degraded(std::string* reason = nullptr) const;

  /// The /timeseriesz backing store; null when series_capacity == 0.
  const obs::series::SeriesStore* series_store() const {
    return series_store_.get();
  }

  /// The sampling collector; null when series_capacity == 0. Non-const so
  /// tests can drive deterministic ticks via TickNow().
  obs::series::SeriesCollector* series_collector() {
    return collector_.get();
  }

  /// The alert engine behind /alertz; null when series_capacity == 0.
  const obs::series::AlertRuleEngine* alert_engine() const {
    return alert_engine_.get();
  }

  /// Mutable engine for installing custom rules on top of the built-ins
  /// (embedders, bench harnesses); null when series_capacity == 0.
  /// AddRule is safe against concurrent collector evaluation passes.
  obs::series::AlertRuleEngine* mutable_alert_engine() {
    return alert_engine_.get();
  }

  /// The /tracez retention ring (exposed for tests and embedders).
  const obs::introspect::TraceRing& trace_ring() const { return trace_ring_; }

  /// The /slowz slow-query log (exposed for tests and embedders); null
  /// when slow_query_log_capacity is 0.
  const obs::prof::SlowQueryLog* slow_query_log() const {
    return slow_query_log_.get();
  }

  /// Per-dataset budget ledgers with every charge (a /budgetz scrape lists
  /// only the newest kBudgetzCharges of them).
  std::vector<DatasetBudgetSnapshot> BudgetSnapshots() const {
    return manager_.BudgetSnapshots();
  }

  /// Charges /budgetz lists per dataset: the most recent ones. Its totals
  /// and num_charges always cover the whole ledger.
  static constexpr std::size_t kBudgetzCharges = 1024;

  /// Running amplification aggregates for one dataset, as served inside
  /// /budgetz: how many queries were charged under amplification, the raw
  /// epsilon their noise was calibrated at, and the amplified epsilon'
  /// actually debited. epsilon_saved() is the ledger's gain.
  struct AmplificationStats {
    std::size_t queries = 0;
    double epsilon_raw = 0.0;
    double epsilon_charged = 0.0;
    double epsilon_saved() const { return epsilon_raw - epsilon_charged; }
  };

  /// Snapshot of the amplification aggregates for `dataset` (zeroes when
  /// no amplified query has run against it).
  AmplificationStats AmplificationTotals(const std::string& dataset) const;

  /// Dump of the process-global metrics registry (counters, gauges, and
  /// histograms from every layer: runtime, chambers, thread pool, service).
  static std::string DumpMetrics(MetricsFormat format);

  /// Loads a previously saved ledger (call after re-registering the same
  /// datasets, before serving queries). Done automatically at construction
  /// when `ledger_path` exists — but registration happens after
  /// construction, so a restarting operator calls this explicitly.
  Status RestoreLedger();

  /// Makes every charge made so far durable in ledger_path, appending only
  /// the charges since the last persist (LedgerJournal::Persist). Runs after
  /// every accepted query and SVT open; concurrent calls from admission
  /// workers coalesce into one write and fdatasync. On error the charges
  /// stay in memory and the next successful persist writes them.
  Status PersistLedger() const;

 private:
  Result<QueryReport> Execute(const QueryRequest& request);

  /// Registers the endpoint handlers on a not-yet-started server.
  void InstallIntrospectionHandlers(obs::introspect::HttpServer* server);

  /// /budgetz bodies.
  std::string BudgetzJson() const;
  std::string BudgetzText() const;

  /// /svtz bodies.
  std::string SvtzJson() const;
  std::string SvtzText() const;

  /// /slowz bodies.
  std::string SlowzJson() const;
  std::string SlowzText() const;

  /// /healthz body (status line, then diagnostics when verbose).
  std::string HealthzBody(bool healthy, const std::string& reason,
                          bool verbose) const;

  /// True when chamber-pool respawns kept pace with leases over the last
  /// series window (every lease is falling back to fork-per-block).
  bool PoolRespawnStorm(std::string* detail) const;

  /// Ledger totals for the series collector's budget_source hook.
  std::vector<obs::series::BudgetStat> BudgetStatsForSeries() const;

  /// /profilez: arms the sampling profiler for the requested capture
  /// window on the handler thread and returns the folded stacks.
  obs::introspect::HttpResponse HandleProfilez(
      const obs::introspect::HttpRequest& request);

  /// Offers one completed query to the slow-query log.
  void RecordSlowQuery(const QueryRequest& request, const QueryReport& report);

  /// Appends an audit record for an SVT session event (open/close).
  void AuditSvtEvent(const std::string& analyst, const std::string& dataset,
                     const std::string& event, double epsilon_requested,
                     double epsilon_charged, const Status& outcome);

  /// The synchronous body an admission worker runs: cache lookup, pipeline
  /// execution, audit, ledger persist, and — once the charge is durable —
  /// cache insert.
  Result<QueryReport> ProcessQuery(const QueryRequest& request);

  /// Appends one audit record (assigning its id) under audit_mu_,
  /// rotating the oldest record out when the log is at capacity.
  void AppendAuditRecord(AuditRecord record);

  /// Records a query refused before it ran (queue full, injected fault)
  /// in the audit log.
  void AuditAdmissionRefusal(const QueryRequest& request,
                             const Status& refusal);

  /// Canonical cache key for a request; empty when the request is not
  /// cacheable (goal-driven queries re-solve epsilon from aged data, so
  /// they are executed fresh each time). Non-static: the key folds in the
  /// resolved amplification mode, whose default is a service option.
  std::string CacheKey(const QueryRequest& request) const;

  /// Cache lookup; refreshes the entry's LRU position on a hit.
  std::optional<QueryReport> CacheLookup(const std::string& key);

  /// Inserts a release whose charge is durable into the cache, evicting
  /// the least-recently-used entry beyond the configured capacity.
  void CacheInsert(const std::string& key, const QueryReport& report);

  ServiceOptions options_;
  ProgramRegistry registry_;
  DatasetManager manager_;

  /// The ledger file's writer (null when ledger_path is empty). Declared
  /// before admission_pool_, whose draining workers persist through it.
  std::unique_ptr<LedgerJournal> ledger_journal_;

  /// Pre-warmed chamber pool (null when chamber_pool_workers == 0).
  /// Declared before runtime_, which holds a non-owning pointer to it.
  std::unique_ptr<ChamberPool> chamber_pool_;
  std::unique_ptr<GuptRuntime> runtime_;

  mutable std::mutex audit_mu_;
  std::deque<AuditRecord> audit_log_;
  std::size_t audit_next_id_ = 0;

  /// Per-dataset amplification aggregates (see AmplificationTotals).
  mutable std::mutex amplification_mu_;
  std::map<std::string, AmplificationStats> amplification_stats_;

  /// LRU cache: `cache_lru_` is ordered most- to least-recently used and
  /// each map entry holds its own position in that list.
  struct CacheEntry {
    QueryReport report;
    std::list<std::string>::iterator lru_position;
  };
  std::mutex cache_mu_;
  std::list<std::string> cache_lru_;
  std::map<std::string, CacheEntry> query_cache_;

  /// Queries admitted but not yet answered (queued + running).
  std::atomic<std::size_t> admission_in_flight_{0};

  /// Observability handles (process-global registry).
  struct Metrics {
    obs::Counter* requests_accepted;
    obs::Counter* requests_refused;
    obs::Counter* requests_cached;
    obs::Counter* admission_rejected;
    obs::Gauge* admission_queue_depth;
    obs::Counter* cache_evictions;
    obs::Counter* audit_records;
    obs::Counter* traces_recorded;
    obs::Gauge* traces_retained;
    obs::Counter* profile_requests_ok;
    obs::Counter* profile_requests_busy;
    obs::Counter* profile_requests_error;
    obs::Counter* samples_recorded;
    obs::Counter* samples_dropped;
    obs::Counter* slow_queries;
  };
  Metrics metrics_;

  /// The K worst queries by wall time, served at /slowz. Null when
  /// disabled. Declared before admission_pool_: workers record into it.
  std::unique_ptr<obs::prof::SlowQueryLog> slow_query_log_;

  /// Cooperative cancel for an in-flight /profilez capture: the handler
  /// sleeps in short chunks and re-checks, so StopIntrospection (which
  /// joins handler threads) is never held for the full capture window.
  std::atomic<bool> profilez_cancel_{false};

  /// Completed traces retained for /tracez.
  obs::introspect::TraceRing trace_ring_;

  /// Live SVT sessions. Declared after trace_ring_ (sessions push their
  /// traces there on close) so the ring outlives the registry.
  std::unique_ptr<SvtSessionRegistry> svt_sessions_;

  /// Time-series subsystem (all null when series_capacity == 0). The
  /// collector references the store, the engine and the dataset manager,
  /// so it is declared after them (destroyed first) and its thread is
  /// additionally stopped explicitly in the destructor before the
  /// admission queue drains.
  std::unique_ptr<obs::series::SeriesStore> series_store_;
  std::unique_ptr<obs::series::AlertRuleEngine> alert_engine_;
  std::unique_ptr<obs::series::SeriesCollector> collector_;

  mutable std::mutex introspect_mu_;

  /// Declared after everything its draining workers touch, so those
  /// members are still alive while the queue empties.
  std::unique_ptr<ThreadPool> admission_pool_;

  /// Declared last of all so the server is destroyed (stopped) first:
  /// in-flight scrapes read every member above. The destructor stops it
  /// explicitly before draining the admission pool anyway.
  std::unique_ptr<obs::introspect::HttpServer> introspect_;
};

}  // namespace gupt

#endif  // GUPT_SERVICE_GUPT_SERVICE_H_
