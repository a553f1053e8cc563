// In-memory spans recorded by the benchmark's traced pass.
//
// Spans are taken only in the benchmark's own code, around its calls into
// the program's public functions: one root span per query, children for
// the admission-queue wait and the pipeline walk, one grandchild per
// Stage::Run, and, under the execute stage, spans derived from the block
// timings the stage returns. They are kept in memory and written out when
// the run ends.

#ifndef SVCBENCH_SPANS_H_
#define SVCBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "probes.h"

namespace svcbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint64_t query_id = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // id of the enclosing span; -1 for a root
};

/// Spans of one query, built on the thread that runs it and committed
/// to the recorder in one step.
class QuerySpans {
 public:
  QuerySpans(Clock::time_point epoch, std::uint64_t query_id)
      : epoch_(epoch), query_id_(query_id) {}

  /// Adds a span and returns its local index (usable as a parent).
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent = -1);

  /// Sets the end of a span added before its end was known.
  void Finish(int index, Clock::time_point end);

 private:
  friend class SpanRecorder;
  Clock::time_point epoch_;
  std::uint64_t query_id_;
  std::vector<Span> spans_;
};

/// Per span name: how many, mean duration, and mean self time (duration
/// minus the part of the span its direct children cover).
struct SpanStats {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double mean_self_ms = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  QuerySpans Begin(std::uint64_t query_id) const {
    return QuerySpans(epoch_, query_id);
  }

  /// Assigns global ids and stores the query's spans. Thread-safe.
  void Commit(QuerySpans query);

  std::map<std::string, SpanStats> Summarize() const;

  /// Writes {"spans": [...], "summary": {...}} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace svcbench

#endif  // SVCBENCH_SPANS_H_
