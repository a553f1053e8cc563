#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace svcbench {

int QuerySpans::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  span.query_id = query_id_;
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void QuerySpans::Finish(int index, Clock::time_point end) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
}

void SpanRecorder::Commit(QuerySpans query) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t base = static_cast<std::int64_t>(spans_.size());
  for (Span& span : query.spans_) {
    span.id = base + static_cast<std::int64_t>(&span - query.spans_.data());
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, SpanStats> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Direct children of every span, as [start, end) clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::map<std::string, SpanStats> stats;
  std::map<std::string, std::pair<double, double>> sums;  // total, self
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, cursor);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    const double duration_ms =
        static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    stats[span.name].count += 1;
    sums[span.name].first += duration_ms;
    sums[span.name].second += duration_ms - static_cast<double>(covered) / 1e6;
  }
  for (auto& [name, s] : stats) {
    s.mean_ms = sums[name].first / static_cast<double>(s.count);
    s.mean_self_ms = sums[name].second / static_cast<double>(s.count);
  }
  return stats;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::map<std::string, SpanStats> summary = Summarize();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"summary\": {");
  bool first = true;
  for (const auto& [name, s] : summary) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %zu, \"mean_ms\": %.6f, "
                 "\"mean_self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(), s.count, s.mean_ms,
                 s.mean_self_ms);
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [");
  std::lock_guard<std::mutex> lock(mu_);
  first = true;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                 "%lld, \"query_id\": %llu, \"id\": %lld, \"parent\": %lld}",
                 first ? "" : ",", span.name.c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.query_id),
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace svcbench
