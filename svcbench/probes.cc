#include "probes.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace svcbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

// Fields of /proc/<pid>/stat after the parenthesised command name, which
// may itself contain spaces; field 3 (state) comes first.
std::vector<std::string> StatFields(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  std::vector<std::string> fields;
  if (close == std::string::npos) return fields;
  std::istringstream rest(line.substr(close + 1));
  std::string field;
  while (rest >> field) fields.push_back(field);
  return fields;
}

}  // namespace

ServiceCpu::ServiceCpu() {
  const std::string self = std::to_string(getpid());
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return;
  while (dirent* entry = readdir(proc)) {
    const char* name = entry->d_name;
    if (name[0] < '0' || name[0] > '9') continue;
    const std::string path = std::string("/proc/") + name + "/stat";
    std::vector<std::string> f = StatFields(path);
    if (f.size() > 1 && f[1] == self) child_stat_paths_.push_back(path);
  }
  closedir(proc);
}

std::int64_t ServiceCpu::Nanos() const {
  const std::int64_t ns_per_tick = 1000000000 / sysconf(_SC_CLK_TCK);
  std::int64_t total = ProcessCpuNanos();
  for (const std::string& path : child_stat_paths_) {
    // f[11], f[12] are utime, stime (fields 14 and 15 of the stat line).
    std::vector<std::string> f = StatFields(path);
    if (f.size() < 13) continue;
    total += (std::atoll(f[11].c_str()) + std::atoll(f[12].c_str())) *
             ns_per_tick;
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu"
  std::uint64_t v[10] = {};
  for (std::uint64_t& x : v) in >> x;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already counted inside user and nice.
  HostTicks ticks;
  ticks.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  ticks.steal = v[7];
  ticks.total = v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7];
  return ticks;
}

double CalibrationLoopMs() {
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    // A serial xorshift chain: no memory traffic, no vectorisation, a
    // fixed number of dependent steps.
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(rep);
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    times.push_back(Millis(Clock::now() - start));
  }
  return Quantile(times, 0.5);
}

HttpResult HttpGet(int port, const std::string& target, int timeout_ms) {
  HttpResult result;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[65536];
      ssize_t n = 0;
      while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
      result.ok = n == 0;  // orderly close after the whole response
    }
  }
  close(fd);
  if (!result.ok) return result;
  // "HTTP/1.0 200 OK\r\n...\r\n\r\n<body>"
  const std::size_t space = response.find(' ');
  const std::size_t header_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/", 0) != 0 || space == std::string::npos ||
      header_end == std::string::npos) {
    result.ok = false;
    return result;
  }
  result.status = std::atoi(response.c_str() + space + 1);
  result.body = response.substr(header_end + 4);
  return result;
}

}  // namespace svcbench
