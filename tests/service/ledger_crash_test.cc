// Crash test for the durable ε ledger. A forked child runs a GuptService
// on a ledger file (2 datasets, 2 admission workers, in-thread chambers)
// and streams queries with dyadic ε, reporting every charge it submits and
// every charge acknowledged to it over a pipe. The parent SIGKILLs the
// child at seeded random points, restores the file into a fresh service
// each time, and checks per dataset:
//
//   Σ acknowledged  ≤  restored spent − previously restored  ≤  Σ submitted
//
// The left bound is "acknowledged ⇒ durable"; the right one says a crash
// never invents spending. Every child resumes from the file its
// predecessor left, torn tail included, so restore must never fail.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "service/gupt_service.h"

namespace gupt {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKillSeed = 0x5EEDC4A5;  // pre-registered
constexpr int kKills = 24;
constexpr int kMaxKillDelayMs = 40;  // after the child reports ready
constexpr std::size_t kInFlight = 4;
constexpr double kBudget = 1e6;  // never exhausted: every query charges
constexpr std::array<const char*, 2> kDatasets = {"census_a", "census_b"};

/// One pipe message. ε is counted in sixteenths: every ε the child uses is
/// 1/2, 1/4, 1/8 or 1/16, so every sum here is exact in binary.
struct Event {
  enum Kind : std::uint8_t { kReady, kSubmitted, kAcknowledged };
  Kind kind = kReady;
  std::uint8_t dataset = 0;
  std::uint8_t sixteenths = 0;
};

Dataset Ages(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (int i = 0; i < 256; ++i) values.push_back(rng.UniformDouble(0.0, 100.0));
  return Dataset::FromColumn(values).value();
}

ServiceOptions Options(const std::string& ledger) {
  ServiceOptions options;
  options.ledger_path = ledger;
  options.admission_workers = 2;
  options.series_capacity = 0;  // no collector thread
  return options;
}

std::unique_ptr<GuptService> MakeService(const std::string& ledger) {
  auto service = std::make_unique<GuptService>(
      Options(ledger), ProgramRegistry::WithStandardPrograms());
  DatasetOptions ds;
  ds.total_epsilon = kBudget;
  for (std::size_t d = 0; d < kDatasets.size(); ++d) {
    if (!service->RegisterDataset(kDatasets[d], Ages(d + 1), ds).ok()) {
      return nullptr;
    }
  }
  return service;
}

void Send(int fd, const Event& event) {
  if (::write(fd, &event, sizeof(event)) != sizeof(event)) _exit(4);
}

/// The child: restore, report ready, then stream queries until killed.
[[noreturn]] void RunChild(const std::string& ledger, int out,
                           std::uint64_t seed) {
  std::unique_ptr<GuptService> service = MakeService(ledger);
  if (service == nullptr || !service->RestoreLedger().ok()) _exit(3);
  Send(out, Event{});
  Rng rng(seed);
  std::deque<std::pair<Event, std::future<Result<QueryReport>>>> in_flight;
  for (;;) {
    Event event;
    event.kind = Event::kSubmitted;
    event.dataset = static_cast<std::uint8_t>(rng.UniformUint64(2));
    event.sixteenths = static_cast<std::uint8_t>(1u << rng.UniformUint64(4));
    QueryRequest request;
    request.analyst = "crash";
    request.dataset = kDatasets[event.dataset];
    request.program.name = "mean";
    request.epsilon = event.sixteenths / 16.0;
    request.output_ranges = {Range{0.0, 100.0}};
    Send(out, event);  // before the charge can exist
    in_flight.emplace_back(event, service->SubmitQueryAsync(request));
    if (in_flight.size() < kInFlight) continue;
    auto [done, future] = std::move(in_flight.front());
    in_flight.pop_front();
    if (!future.get().ok()) _exit(5);
    done.kind = Event::kAcknowledged;
    Send(out, done);  // only after the answer, i.e. after its persist
  }
}

struct Tally {
  bool ready = false;
  std::array<std::uint64_t, 2> submitted{};     // sixteenths
  std::array<std::uint64_t, 2> acknowledged{};  // sixteenths
};

/// Reads the child's events; SIGKILLs it `delay` after it reports ready
/// (or after 10 s without a ready), then reads on to end of file.
Tally WatchAndKill(int in, pid_t child, std::chrono::milliseconds delay) {
  Tally tally;
  Clock::time_point kill_at = Clock::now() + std::chrono::seconds(10);
  bool killed = false;
  std::string pending;
  for (;;) {
    if (!killed && Clock::now() >= kill_at) {
      ::kill(child, SIGKILL);
      killed = true;
    }
    if (!killed) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          kill_at - Clock::now());
      pollfd readable{in, POLLIN, 0};
      const int timeout_ms =
          static_cast<int>(std::max<std::int64_t>(0, wait.count()));
      if (::poll(&readable, 1, timeout_ms) <= 0) continue;
    }
    char buf[4096];
    const ssize_t n = ::read(in, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // end of file: the child is gone
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t used = 0;
    for (; pending.size() - used >= sizeof(Event); used += sizeof(Event)) {
      Event event;
      std::memcpy(&event, pending.data() + used, sizeof(Event));
      if (event.kind == Event::kReady) {
        tally.ready = true;
        kill_at = Clock::now() + delay;
      } else if (event.kind == Event::kSubmitted) {
        tally.submitted[event.dataset] += event.sixteenths;
      } else {
        tally.acknowledged[event.dataset] += event.sixteenths;
      }
    }
    pending.erase(0, used);
  }
  return tally;
}

TEST(LedgerCrashTest, SigkillNeverLosesAnAcknowledgedCharge) {
  const std::string ledger = ::testing::TempDir() + "/ledger_crash_test.ledger";
  std::remove(ledger.c_str());
  std::remove((ledger + ".tmp").c_str());
  Rng rng(kKillSeed);
  std::array<double, 2> restored{};  // spent ε the file held before the child
  std::uint64_t acknowledged_total = 0;
  for (int kill = 0; kill < kKills; ++kill) {
    SCOPED_TRACE("kill " + std::to_string(kill));
    const std::chrono::milliseconds delay(
        rng.UniformUint64(kMaxKillDelayMs + 1));
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::close(fds[0]);
      RunChild(ledger, fds[1], kKillSeed + static_cast<std::uint64_t>(kill));
    }
    ::close(fds[1]);
    const Tally tally = WatchAndKill(fds[0], child, delay);
    ::close(fds[0]);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(tally.ready) << "child never streamed, wait status "
                             << wait_status;
    ASSERT_TRUE(WIFSIGNALED(wait_status) && WTERMSIG(wait_status) == SIGKILL)
        << "child exited on its own, wait status " << wait_status;

    std::unique_ptr<GuptService> service = MakeService(ledger);
    ASSERT_NE(service, nullptr);
    const Status restore = service->RestoreLedger();
    ASSERT_TRUE(restore.ok()) << restore;
    const std::vector<DatasetBudgetSnapshot> ledgers =
        service->BudgetSnapshots();
    ASSERT_EQ(ledgers.size(), kDatasets.size());
    for (std::size_t d = 0; d < kDatasets.size(); ++d) {
      SCOPED_TRACE(kDatasets[d]);
      const double spent = ledgers[d].budget.spent_epsilon;
      EXPECT_LE(restored[d] + tally.acknowledged[d] / 16.0, spent);
      EXPECT_LE(spent, restored[d] + tally.submitted[d] / 16.0);
      restored[d] = spent;
      acknowledged_total += tally.acknowledged[d];
    }
  }
  EXPECT_GT(acknowledged_total, 0u);  // the kills landed mid-stream
  std::remove(ledger.c_str());
  std::remove((ledger + ".tmp").c_str());
}

}  // namespace
}  // namespace gupt
