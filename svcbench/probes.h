// Host and process measurements the benchmark takes around its timed
// phases, plus the small statistics and loopback-HTTP helpers it needs.
// Everything here reads the operating system directly, never the program
// under test, so a change to the program cannot change how it is measured.

#ifndef SVCBENCH_PROBES_H_
#define SVCBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace svcbench {

using Clock = std::chrono::steady_clock;

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Linear-interpolated quantile q in [0, 1] of `values` (copied and
/// sorted); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Nearest-rank percentile: the smallest value with at least q of the
/// sample at or below it. Used for tail latency, where interpolating
/// between the last two samples would invent a value nobody observed.
double NearestRank(std::vector<double> values, double q);

/// CPU time of this process (all threads), in nanoseconds.
std::int64_t ProcessCpuNanos();

/// CPU of this process plus its direct children (the chamber-pool
/// workers). The children are found once, at construction, by scanning
/// /proc; each reading then sums their /proc/<pid>/stat user+system ticks.
/// A child that exits drops out of later readings, so readings are
/// compared only while the pool is steady.
class ServiceCpu {
 public:
  ServiceCpu();
  std::int64_t Nanos() const;

 private:
  std::vector<std::string> child_stat_paths_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Aggregate CPU tick counters from /proc/stat.
struct HostTicks {
  std::uint64_t busy = 0;   // user+nice+system+irq+softirq
  std::uint64_t steal = 0;
  std::uint64_t total = 0;  // every field, idle and iowait included
};
HostTicks ReadHostTicks();

/// Median wall time, in ms, of a fixed single-thread integer loop. The
/// loop's work never changes, so its time moves only with the host.
double CalibrationLoopMs();

/// One blocking HTTP/1.0 GET against 127.0.0.1:port; the server closes
/// the connection after the response.
struct HttpResult {
  bool ok = false;  // transport succeeded and the status line parsed
  int status = 0;
  std::string body;
};
HttpResult HttpGet(int port, const std::string& target, int timeout_ms);

}  // namespace svcbench

#endif  // SVCBENCH_PROBES_H_
