#include "replay.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "core/pipeline/query_context.h"
#include "obs/trace.h"

namespace svcbench {
namespace {

// Program specs cross the pool's pipe as "name\nkey=value\n...".
std::string ProgramToken(const gupt::ProgramSpec& spec) {
  std::string token = spec.name;
  for (const auto& [key, value] : spec.params) {
    token += '\n' + key + '=' + value;
  }
  return token;
}

gupt::Result<gupt::ProgramSpec> ParseProgramToken(const std::string& token) {
  gupt::ProgramSpec spec;
  std::istringstream in(token);
  std::string line;
  if (!std::getline(in, spec.name) || spec.name.empty()) {
    return gupt::Status::InvalidArgument("empty program token");
  }
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return gupt::Status::InvalidArgument("bad program token line: " + line);
    }
    spec.params[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return spec;
}

}  // namespace

gupt::Result<std::unique_ptr<gupt::ChamberPool>> StartReplayPool(
    const Workload& workload) {
  auto pool = std::make_unique<gupt::ChamberPool>(
      workload.options.runtime.chamber_policy,
      workload.options.chamber_pool_workers);
  pool->SetProgramResolver(
      [registry = gupt::ProgramRegistry::WithStandardPrograms()](
          const std::string& token) -> gupt::Result<gupt::ProgramFactory> {
        GUPT_ASSIGN_OR_RETURN(gupt::ProgramSpec spec,
                              ParseProgramToken(token));
        return registry.Build(spec);
      });
  GUPT_RETURN_IF_ERROR(pool->Start());
  return pool;
}

Replay::Replay(const Workload& workload, gupt::ChamberPool* chamber_pool,
               std::uint64_t seed, SpanRecorder* recorder)
    : workload_(&workload),
      chamber_pool_(chamber_pool),
      seed_(seed),
      recorder_(recorder),
      registry_(gupt::ProgramRegistry::WithStandardPrograms()) {
  const gupt::GuptOptions& runtime = workload.options.runtime;
  if (runtime.num_workers > 0) {
    fanout_ = std::make_unique<gupt::ThreadPool>(runtime.num_workers);
  }
  computation_ = std::make_unique<gupt::ComputationManager>(
      fanout_.get(), runtime.chamber_policy, chamber_pool_);
  pipeline_ = std::make_unique<gupt::QueryPipeline>(computation_.get());
  admission_ =
      std::make_unique<gupt::ThreadPool>(workload.options.admission_workers);
}

gupt::Status Replay::Init() {
  for (const DatasetInput& ds : workload_->datasets) {
    GUPT_RETURN_IF_ERROR(manager_.Register(ds.name, ds.data, ds.options));
    GUPT_ASSIGN_OR_RETURN(std::shared_ptr<gupt::RegisteredDataset> reg,
                          manager_.Get(ds.name));
    for (const gupt::dp::BudgetCharge& c : ds.history) {
      GUPT_RETURN_IF_ERROR(reg->accountant().Charge(c.epsilon, c.label));
    }
  }
  return gupt::Status::OK();
}

std::future<gupt::Result<gupt::QueryReport>> Replay::Submit(
    const Query& query, bool traced) {
  auto promise =
      std::make_shared<std::promise<gupt::Result<gupt::QueryReport>>>();
  std::future<gupt::Result<gupt::QueryReport>> future = promise->get_future();
  const Clock::time_point submitted = Clock::now();
  admission_->Submit([this, promise, query, submitted, traced]() {
    promise->set_value(Walk(query, submitted, traced));
  });
  return future;
}

LayerTotals Replay::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void Replay::ResetTotals() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ = LayerTotals();
}

gupt::Result<gupt::QueryReport> Replay::Walk(const Query& query,
                                             Clock::time_point submitted,
                                             bool traced) {
  const Clock::time_point started = Clock::now();
  const gupt::QueryRequest& request = query.request;
  // The same QuerySpec the service derives from a tight-mode request.
  gupt::QuerySpec spec;
  GUPT_ASSIGN_OR_RETURN(spec.program, registry_.Build(request.program));
  spec.epsilon = request.epsilon;
  spec.range = gupt::OutputRangeSpec::Tight(request.output_ranges);
  if (chamber_pool_ != nullptr) {
    spec.pool_program = ProgramToken(request.program);
  }
  GUPT_ASSIGN_OR_RETURN(std::shared_ptr<gupt::RegisteredDataset> ds,
                        manager_.Get(request.dataset));
  const std::uint64_t query_id = next_query_id_.fetch_add(1);
  gupt::Rng rng(seed_, query_id);
  gupt::obs::QueryTrace trace;
  gupt::QueryContext ctx(*ds, spec, &rng, &trace);

  if (!traced) {
    const Clock::time_point begin = Clock::now();
    gupt::Result<gupt::QueryReport> report = pipeline_->Run(ctx);
    const double wall_ms = Millis(Clock::now() - begin);
    std::lock_guard<std::mutex> lock(mu_);
    totals_.untraced_queries += 1;
    totals_.untraced_pipeline_ms += wall_ms;
    return report;
  }

  QuerySpans spans = recorder_->Begin(query_id);
  const int root = spans.Add("query", submitted, submitted);
  spans.Add("admission_queue_wait", submitted, started, root);
  const Clock::time_point walk_begin = Clock::now();
  const int pipeline = spans.Add("pipeline", walk_begin, walk_begin, root);
  LayerTotals mine;
  gupt::Status status = gupt::Status::OK();
  for (const gupt::Stage* stage : pipeline_->stages()) {
    const bool had_blocks = !ctx.exec_report.timings.empty();
    const Clock::time_point begin = Clock::now();
    status = stage->Run(ctx);
    const Clock::time_point end = Clock::now();
    const int span = spans.Add(stage->name(), begin, end, pipeline);
    mine.stage_ms[stage->name()] += Millis(end - begin);
    // The stage that produced the block timings is the fan-out, whatever
    // it is called: split its span into dispatch wait, blocks and join.
    const std::vector<gupt::BlockTiming>& timings = ctx.exec_report.timings;
    if (!had_blocks && !timings.empty()) {
      Clock::time_point first = timings.front().start;
      Clock::time_point last = timings.front().end;
      for (std::size_t i = 0; i < timings.size(); ++i) {
        first = std::min(first, timings[i].start);
        last = std::max(last, timings[i].end);
        mine.block_queue_wait_ms += Millis(timings[i].start - begin);
      }
      for (const gupt::ChamberRun& run : ctx.exec_report.runs) {
        mine.blocks += 1;
        mine.fallback_blocks += run.used_fallback ? 1 : 0;
        mine.block_ms +=
            std::chrono::duration<double, std::milli>(run.elapsed).count();
        mine.block_cpu_ms +=
            static_cast<double>(run.child_user_cpu_ns + run.child_sys_cpu_ns) /
            1e6;
      }
      mine.join_wait_ms += Millis(end - last);
      spans.Add("fanout_dispatch_wait", begin, first, span);
      spans.Add("blocks", first, last, span);
      spans.Add("fanout_join_wait", last, end, span);
    }
    if (!status.ok()) break;
  }
  const Clock::time_point walk_end = Clock::now();
  spans.Finish(pipeline, walk_end);
  spans.Finish(root, walk_end);
  recorder_->Commit(std::move(spans));
  mine.pipeline_ms = Millis(walk_end - walk_begin);
  {
    std::lock_guard<std::mutex> lock(mu_);
    totals_.queries += 1;
    for (const auto& [name, ms] : mine.stage_ms) totals_.stage_ms[name] += ms;
    totals_.pipeline_ms += mine.pipeline_ms;
    totals_.blocks += mine.blocks;
    totals_.fallback_blocks += mine.fallback_blocks;
    totals_.block_ms += mine.block_ms;
    totals_.block_cpu_ms += mine.block_cpu_ms;
    totals_.block_queue_wait_ms += mine.block_queue_wait_ms;
    totals_.join_wait_ms += mine.join_wait_ms;
  }
  if (!status.ok()) return status;
  return std::move(ctx.report);
}

}  // namespace svcbench
