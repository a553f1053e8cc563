#include "exec/chamber_pool.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "obs/prof/profiler.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

using Clock = std::chrono::steady_clock;

// Parent -> worker commands. kCmdCrash is the lease crash failpoint made
// real: the worker _exits before writing a response byte, so the parent
// observes the same EOF a genuine mid-lease SIGSEGV would produce.
constexpr std::uint8_t kCmdRun = 1;
constexpr std::uint8_t kCmdCrash = 2;
constexpr std::uint8_t kCmdShutdown = 3;

// Worker -> parent response statuses (a superset of the process-chamber
// frame: workers resolve program tokens themselves and can fail at that).
constexpr std::uint8_t kOk = 1;
constexpr std::uint8_t kProgramError = 2;
constexpr std::uint8_t kDimensionMismatch = 3;
constexpr std::uint8_t kResolverError = 4;

// Request header: cmd u8 | token_len u32 | num_dims u32 |
// expected_dims u32 | num_rows u64, packed; the token follows it in the
// same frame, and the block is in the worker's segment.
constexpr std::size_t kRequestHeaderBytes = 1 + 4 + 4 + 4 + 8;
// Response head: status u8 | violations u64 | cpu_user_ns i64 |
// cpu_sys_ns i64 | max_rss_kb i64, then `n u64 | n x f64` when status is
// kOk.
constexpr std::size_t kResponseHeadBytes = 1 + 8 + 8 + 8 + 8;

/// Copies `value`'s bytes, unpadded, to `out`; returns the end.
template <typename T>
char* Put(char* out, const T& value) {
  std::memcpy(out, &value, sizeof(value));
  return out + sizeof(value);
}

/// Reads a `T` from the unpadded bytes at `in`; returns the end.
template <typename T>
const char* Get(const char* in, T* value) {
  std::memcpy(value, in, sizeof(*value));
  return in + sizeof(*value);
}

/// Moves every byte of iov[0, count) through `io` (::readv or ::writev),
/// resuming after a short transfer by advancing the array in place and
/// retrying on EINTR. False on an error or EOF.
bool TransferFully(ssize_t (*io)(int, const struct iovec*, int), int fd,
                   struct iovec* iov, int count) {
  for (;;) {
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return true;
    ssize_t n = io(fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF: the other end closed mid-frame
    auto moved = static_cast<std::size_t>(n);
    while (moved > 0) {
      std::size_t step = std::min(moved, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + step;
      iov->iov_len -= step;
      moved -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
}

bool WriteFully(int fd, const void* data, std::size_t len) {
  struct iovec iov = {const_cast<void*>(data), len};
  return TransferFully(::writev, fd, &iov, 1);
}

/// Blocking exact read (worker side — workers have no deadline of their
/// own; the parent enforces deadlines and kills overrunners).
bool ReadFully(int fd, void* data, std::size_t len) {
  struct iovec iov = {data, len};
  return TransferFully(::readv, fd, &iov, 1);
}

/// Parent-side read of a response frame under an absolute deadline
/// (nullopt = none): reads into `frame` from `*got` on until at least
/// `need` bytes are in, taking whatever more the worker already wrote up
/// to frame->size(). The worker writes its frame at once, so one
/// poll+read pair usually brings all of it.
bool ReadAtLeastWithDeadline(int fd, std::vector<char>* frame,
                             std::size_t need, std::size_t* got,
                             const std::optional<Clock::time_point>& deadline,
                             bool* timed_out) {
  while (*got < need) {
    int wait_ms = -1;
    if (deadline) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - Clock::now());
      if (remaining.count() <= 0) {
        *timed_out = true;
        return false;
      }
      wait_ms = static_cast<int>(remaining.count()) + 1;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) {
      *timed_out = true;
      return false;
    }
    ssize_t n = ::read(fd, frame->data() + *got, frame->size() - *got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF: worker died mid-frame
    *got += static_cast<std::size_t>(n);
  }
  return true;
}

Status ErrnoStatus(const char* call) {
  std::string message = call;
  message += " failed: ";
  message += std::strerror(errno);
  return Status::Internal(message);
}

/// Creates a sparse input segment of `bytes`: the memfd the worker will
/// map, and the parent's read-write mapping of it, which no later fork
/// inherits. The seals come last: F_SEAL_FUTURE_WRITE keeps the parent's
/// mapping writable but refuses every later writable mapping, the
/// worker's included, and the size is fixed.
Status CreateSegment(std::size_t bytes, int* fd, double** mapping) {
  const int segment =
      ::memfd_create("gupt-chamber-segment", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (segment < 0) return ErrnoStatus("memfd_create()");
  void* mapped = MAP_FAILED;
  if (::ftruncate(segment, static_cast<off_t>(bytes)) != 0 ||
      (mapped = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                       segment, 0)) == MAP_FAILED ||
      ::madvise(mapped, bytes, MADV_DONTFORK) != 0 ||
      ::fcntl(segment, F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_FUTURE_WRITE |
                  F_SEAL_SEAL) != 0) {
    Status error = ErrnoStatus("input segment setup");
    if (mapped != MAP_FAILED) ::munmap(mapped, bytes);
    ::close(segment);
    return error;
  }
  *fd = segment;
  *mapping = static_cast<double*>(mapped);
  return Status::OK();
}

std::int64_t TimevalNs(const struct timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1'000;
}

}  // namespace

ChamberPool::ChamberPool(ChamberPolicy policy, std::size_t num_workers)
    : policy_(std::move(policy)) {
  slots_.resize(num_workers == 0 ? 1 : num_workers);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  workers_gauge_ = registry.GetGauge(
      "gupt_chamber_pool_workers_count",
      "Live pre-warmed chamber pool workers (leased or idle).");
  spawned_counter_ = registry.GetCounter(
      "gupt_chamber_pool_spawned_total",
      "Pool worker processes forked (initial spawns plus respawns).");
  leases_counter_ = registry.GetCounter(
      "gupt_chamber_pool_leases_total",
      "Blocks dispatched to pooled workers (one lease per block).");
  resets_counter_ = registry.GetCounter(
      "gupt_chamber_pool_resets_total",
      "Clean leases after which the worker was reset and reused.");
  respawns_counter_ = registry.GetCounter(
      "gupt_chamber_pool_respawns_total",
      "Workers discarded (crash, timeout, reset failpoint, or a block larger "
      "than the segment) and replaced.");
  shipped_bytes_counter_ = registry.GetCounter(
      "gupt_chamber_pool_shipped_bytes_total",
      "Request-frame bytes written to pool worker pipes (headers plus "
      "tokens).");
  lease_wait_histogram_ = registry.GetHistogram(
      "gupt_chamber_pool_lease_wait_seconds",
      "Time a block waited for a free pool worker.",
      obs::Histogram::DurationBuckets());
}

ChamberPool::~ChamberPool() { Shutdown(); }

void ChamberPool::SetProgramResolver(ProgramResolver resolver) {
  std::lock_guard<std::mutex> lock(mu_);
  resolver_ = std::move(resolver);
}

[[noreturn]] void ChamberPool::WorkerMain(int request_fd, int response_fd,
                                          int segment_fd,
                                          std::size_t segment_bytes) const {
  void* mapped =
      ::mmap(nullptr, segment_bytes, PROT_READ, MAP_SHARED, segment_fd, 0);
  ::close(segment_fd);
  if (mapped == MAP_FAILED) ::_exit(1);
  const auto* segment = static_cast<const double*>(mapped);
  for (;;) {
    std::uint8_t cmd = 0;
    if (!ReadFully(request_fd, &cmd, sizeof(cmd))) ::_exit(0);
    if (cmd == kCmdShutdown) ::_exit(0);
    if (cmd == kCmdCrash) ::_exit(9);

    char header[kRequestHeaderBytes - sizeof(cmd)];
    if (!ReadFully(request_fd, header, sizeof(header))) ::_exit(1);
    std::uint32_t token_len = 0;
    std::uint32_t num_dims = 0;
    std::uint32_t expected_dims = 0;
    std::uint64_t num_rows = 0;
    const char* in = Get(header, &token_len);
    in = Get(in, &num_dims);
    in = Get(in, &expected_dims);
    Get(in, &num_rows);
    std::string token(token_len, '\0');
    if (!ReadFully(request_fd, token.data(), token_len)) ::_exit(1);
    // A block that does not fit the segment is a malformed frame.
    if (num_dims == 0 || num_rows == 0 ||
        num_rows > segment_bytes / sizeof(double) / num_dims) {
      ::_exit(1);
    }

    struct rusage before;
    struct rusage after;
    std::memset(&before, 0, sizeof(before));
    std::memset(&after, 0, sizeof(after));
    ::getrusage(RUSAGE_SELF, &before);

    std::uint8_t status = kOk;
    std::uint64_t violations = 0;
    Row output;
    Result<ProgramFactory> factory =
        resolver_ ? resolver_(token)
                  : Result<ProgramFactory>(Status::Internal(
                        "chamber pool has no program resolver"));
    if (!factory.ok()) {
      status = kResolverError;
    } else {
      ChamberServices services(policy_);
      Result<Row> result = Status::Internal("never ran");
      try {
        // The program reads the block in place, through a store that
        // borrows the read-only mapping.
        auto store = std::make_shared<ColumnStore>();
        store->base = segment;
        store->num_rows = num_rows;
        store->num_dims = num_dims;
        const Dataset block = Dataset::FromStore(std::move(store), 0, num_rows);
        std::unique_ptr<AnalysisProgram> program = factory.value()();
        result = program->RunWithServices(block, &services);
      } catch (...) {
        result = Status::PolicyViolation("program threw");
      }
      violations = static_cast<std::uint64_t>(services.violation_count());
      if (!result.ok()) {
        status = kProgramError;
      } else if (result.value().size() != expected_dims) {
        status = kDimensionMismatch;
      } else {
        output = std::move(result).value();
      }
    }

    ::getrusage(RUSAGE_SELF, &after);
    // Per-lease rusage delta reported by the worker itself: the parent
    // cannot wait4() a worker that stays alive across leases. Max RSS is a
    // process high-water mark, not a delta.
    std::int64_t cpu_user_ns =
        TimevalNs(after.ru_utime) - TimevalNs(before.ru_utime);
    std::int64_t cpu_sys_ns =
        TimevalNs(after.ru_stime) - TimevalNs(before.ru_stime);
    std::int64_t max_rss_kb = static_cast<std::int64_t>(after.ru_maxrss);

    // The whole response goes out in one write.
    const auto n = static_cast<std::uint64_t>(output.size());
    std::vector<char> frame(kResponseHeadBytes +
                            (status == kOk ? sizeof(n) + n * sizeof(double)
                                           : 0));
    char* out = Put(frame.data(), status);
    out = Put(out, violations);
    out = Put(out, cpu_user_ns);
    out = Put(out, cpu_sys_ns);
    out = Put(out, max_rss_kb);
    if (status == kOk) {
      std::memcpy(Put(out, n), output.data(), n * sizeof(double));
    }
    if (!WriteFully(response_fd, frame.data(), frame.size())) ::_exit(1);
  }
}

Status ChamberPool::SpawnSlotLocked(std::size_t slot) {
  GUPT_FAILPOINT_STATUS("exec.pool.spawn");
  Worker& w = slots_[slot];
  int segment_fd = -1;
  GUPT_RETURN_IF_ERROR(
      CreateSegment(w.segment_bytes, &segment_fd, &w.segment));
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  pid_t pid = -1;
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0 ||
      (pid = ::fork()) < 0) {
    Status error = ErrnoStatus("pipe() or fork()");
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      if (fd >= 0) ::close(fd);
    }
    ::close(segment_fd);
    ::munmap(w.segment, w.segment_bytes);
    w.segment = nullptr;
    return error;
  }
  if (pid == 0) {
    // The worker keeps only its own descriptors: every other slot's pipe
    // ends stay with the parent (this slot's are -1 until below).
    for (const Worker& other : slots_) {
      if (other.to_child >= 0) ::close(other.to_child);
      if (other.from_child >= 0) ::close(other.from_child);
    }
    ::close(to_child[1]);
    ::close(from_child[0]);
    WorkerMain(to_child[0], from_child[1], segment_fd, w.segment_bytes);
  }
  ::close(segment_fd);
  ::close(to_child[0]);
  ::close(from_child[1]);
  w.pid = pid;
  w.to_child = to_child[1];
  w.from_child = from_child[0];
  w.alive = true;
  w.dirty_bytes = 0;
  ++stats_.spawned;
  ++stats_.workers_alive;
  spawned_counter_->Increment();
  workers_gauge_->Set(static_cast<double>(stats_.workers_alive));
  return Status::OK();
}

void ChamberPool::DiscardSlotLocked(std::size_t slot, bool kill) {
  Worker& w = slots_[slot];
  if (!w.alive) return;
  if (kill) ::kill(w.pid, SIGKILL);
  ::close(w.to_child);
  ::close(w.from_child);
  while (::waitpid(w.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  ::munmap(w.segment, w.segment_bytes);
  w.pid = -1;
  w.to_child = -1;
  w.from_child = -1;
  w.alive = false;
  w.segment = nullptr;
  w.dirty_bytes = 0;
  --stats_.workers_alive;
  workers_gauge_->Set(static_cast<double>(stats_.workers_alive));
}

Status ChamberPool::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::InvalidArgument("chamber pool already started");
  // Writes to a worker that died mid-lease must surface as EPIPE on the
  // write, not kill the whole service.
  ::signal(SIGPIPE, SIG_IGN);
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    // A failed spawn (exec.pool.spawn, ENOMEM, ...) leaves the slot dead;
    // it is retried at the next lease. Only a pool with zero live workers
    // is unusable.
    if (SpawnSlotLocked(slot).ok()) free_slots_.push_back(slot);
  }
  if (free_slots_.empty()) {
    return Status::Internal("chamber pool failed to spawn any worker");
  }
  started_ = true;
  return Status::OK();
}

void ChamberPool::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  shutdown_ = true;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    Worker& w = slots_[slot];
    if (!w.alive) continue;
    std::uint8_t cmd = kCmdShutdown;
    (void)WriteFully(w.to_child, &cmd, sizeof(cmd));
    DiscardSlotLocked(slot, /*kill=*/false);
  }
  worker_free_.notify_all();
}

int ChamberPool::LeaseSlotLocked(std::unique_lock<std::mutex>* lock) {
  for (;;) {
    if (shutdown_) return -1;
    if (!free_slots_.empty()) {
      std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      ++leased_count_;
      return static_cast<int>(slot);
    }
    // Revive dead slots before waiting: a crashed worker's slot is
    // respawned lazily, here, by whichever lease needs it next.
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].alive && SpawnSlotLocked(slot).ok()) {
        ++stats_.respawns;
        respawns_counter_->Increment();
        ++leased_count_;
        return static_cast<int>(slot);
      }
    }
    if (leased_count_ == 0) return -1;  // nothing running, nothing leasable
    worker_free_.wait(*lock);
  }
}

Result<ChamberRun> ChamberPool::Execute(const std::string& program_token,
                                        const BlockSet& blocks, std::size_t b,
                                        const Row& fallback) {
  if (fallback.empty()) {
    return Status::InvalidArgument("fallback must be non-empty");
  }
  const std::size_t num_dims = blocks.source.num_dims();
  const std::size_t num_rows =
      b < blocks.num_blocks() ? blocks.slices[b].length : 0;
  if (num_rows == 0 || num_dims == 0) {
    return Status::InvalidArgument("pooled execution needs a non-empty block");
  }
  const std::size_t block_bytes = num_rows * num_dims * sizeof(double);
  obs::prof::ScopedStageTag stage_tag("chamber_pool");

  const auto start = Clock::now();
  std::optional<Clock::time_point> deadline;
  if (policy_.deadline.count() > 0) {
    deadline = start + policy_.deadline;
  }

  ChamberRun run;
  auto finish = [&](ChamberRun&& r) -> Result<ChamberRun> {
    if (policy_.pad_to_deadline && deadline) {
      std::this_thread::sleep_until(*deadline);
    }
    r.elapsed = Clock::now() - start;
    return std::move(r);
  };

  // The lease verdict is drawn parent-side (like the process chamber's
  // pre-fork verdict): kError substitutes the fallback without touching a
  // worker; kCrash sends kCmdCrash so the worker dies for real and the
  // whole EOF -> fallback -> respawn path is exercised.
  failpoints::Outcome lease_fp = failpoints::EvalDetailed("exec.pool.lease");
  if (lease_fp.fired && lease_fp.delay.count() > 0) {
    std::this_thread::sleep_for(lease_fp.delay);
  }
  if (lease_fp.fired && lease_fp.action == failpoints::FireAction::kError) {
    run.used_fallback = true;
    run.output = fallback;
    run.program_status =
        Status::Internal(failpoints::InjectedMessage("exec.pool.lease"));
    return finish(std::move(run));
  }
  const bool inject_crash =
      lease_fp.fired && lease_fp.action == failpoints::FireAction::kCrash;

  int slot = -1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) {
      return Status::InvalidArgument("chamber pool is not started");
    }
    slot = LeaseSlotLocked(&lock);
    if (slot < 0) {
      return Status::Internal("chamber pool has no leasable worker");
    }
    ++stats_.leases;
    Worker& leased = slots_[static_cast<std::size_t>(slot)];
    if (!inject_crash && leased.segment_bytes < block_bytes) {
      // The block outgrew this worker's segment: replace the worker with
      // one whose segment fits, rather than refuse the block.
      DiscardSlotLocked(static_cast<std::size_t>(slot), /*kill=*/true);
      while (leased.segment_bytes < block_bytes) leased.segment_bytes *= 2;
      Status respawned = SpawnSlotLocked(static_cast<std::size_t>(slot));
      if (!respawned.ok()) {
        --leased_count_;
        lock.unlock();
        worker_free_.notify_one();
        return respawned;
      }
      ++stats_.respawns;
      respawns_counter_->Increment();
    }
  }
  leases_counter_->Increment();
  lease_wait_histogram_->Observe(
      std::chrono::duration<double>(Clock::now() - start).count());
  Worker& w = slots_[static_cast<std::size_t>(slot)];  // stable after Start

  // The lease owns the slot, so its segment is written without the lock:
  // the block, then zeros over whatever the previous lease left past it.
  if (!inject_crash) {
    blocks.GatherInto(b, w.segment);
    if (w.dirty_bytes > block_bytes) {
      std::memset(reinterpret_cast<char*>(w.segment) + block_bytes, 0,
                  w.dirty_bytes - block_bytes);
    }
    w.dirty_bytes = block_bytes;
  }

  // Ship the request as one frame and one writev: header and token. A
  // failed write means the worker is already dead (EPIPE); that is the
  // same story as EOF below.
  char header[kRequestHeaderBytes];
  char* out = Put(header, inject_crash ? kCmdCrash : kCmdRun);
  struct iovec request[2] = {
      {header, 1},  // a bare command byte for a crash
      {const_cast<char*>(program_token.data()), 0}};
  if (!inject_crash) {
    out = Put(out, static_cast<std::uint32_t>(program_token.size()));
    out = Put(out, static_cast<std::uint32_t>(num_dims));
    out = Put(out, static_cast<std::uint32_t>(fallback.size()));
    Put(out, static_cast<std::uint64_t>(num_rows));
    request[0].iov_len = sizeof(header);
    request[1].iov_len = program_token.size();
  }
  const std::uint64_t frame_bytes = request[0].iov_len + request[1].iov_len;
  const bool shipped = TransferFully(::writev, w.to_child, request, 2);
  shipped_bytes_counter_->Increment(static_cast<double>(frame_bytes));

  // Read the response under the deadline (when shipping already failed we
  // skip straight to the crash handling below): the head first, then, for
  // an ok status, the output of exactly the expected arity. Sized for the
  // longest valid frame, so one read usually takes all of it.
  std::uint8_t status = 0;
  std::uint64_t violations = 0;
  std::int64_t cpu_user_ns = 0;
  std::int64_t cpu_sys_ns = 0;
  std::int64_t max_rss_kb = 0;
  bool timed_out = false;
  std::vector<char> response(kResponseHeadBytes + sizeof(std::uint64_t) +
                             fallback.size() * sizeof(double));
  std::size_t got = 0;
  bool frame_ok =
      shipped && ReadAtLeastWithDeadline(w.from_child, &response,
                                         kResponseHeadBytes, &got, deadline,
                                         &timed_out);
  Row output;
  if (frame_ok) {
    const char* in = Get(response.data(), &status);
    in = Get(in, &violations);
    in = Get(in, &cpu_user_ns);
    in = Get(in, &cpu_sys_ns);
    in = Get(in, &max_rss_kb);
    if (status != kOk) {
      frame_ok = got == kResponseHeadBytes;  // nothing may follow the head
    } else {
      // An ok frame carries exactly the expected arity; a wrong `n` is a
      // malformed frame, caught before waiting for a body.
      std::uint64_t n = 0;
      frame_ok = ReadAtLeastWithDeadline(w.from_child, &response,
                                         kResponseHeadBytes + sizeof(n), &got,
                                         deadline, &timed_out);
      if (frame_ok) in = Get(in, &n);
      frame_ok = frame_ok && n == fallback.size() &&
                 ReadAtLeastWithDeadline(w.from_child, &response,
                                         response.size(), &got, deadline,
                                         &timed_out);
      if (frame_ok) {
        output.resize(n);
        std::memcpy(output.data(), in, n * sizeof(double));
      }
    }
  }

  const bool worker_healthy = frame_ok && !timed_out;
  bool discard = !worker_healthy;
  if (worker_healthy) {
    // exec.pool.reset: the reset-and-reuse step fails — the answer is
    // kept, but the worker is discarded instead of returning to the free
    // list, forcing the respawn path without losing a block.
    if (failpoints::Eval("exec.pool.reset") != failpoints::FireAction::kNone) {
      discard = true;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Under mu_ like every stats_ field: Stats() copies them under it
    // while other fan-out threads lease concurrently.
    stats_.shipped_bytes += frame_bytes;
    --leased_count_;
    if (discard) {
      DiscardSlotLocked(static_cast<std::size_t>(slot),
                        /*kill=*/timed_out || !frame_ok);
    } else {
      ++stats_.resets;
      resets_counter_->Increment();
      free_slots_.push_back(static_cast<std::size_t>(slot));
    }
  }
  worker_free_.notify_one();

  run.policy_violations = static_cast<std::size_t>(violations);
  run.child_user_cpu_ns = cpu_user_ns;
  run.child_sys_cpu_ns = cpu_sys_ns;
  run.child_max_rss_kb = max_rss_kb;
  if (timed_out) {
    run.deadline_exceeded = true;
    run.used_fallback = true;
    run.output = fallback;
    run.policy_violations = 0;  // the partial frame is not trustworthy
    run.child_user_cpu_ns = 0;
    run.child_sys_cpu_ns = 0;
    run.child_max_rss_kb = 0;
    run.program_status =
        Status::DeadlineExceeded("pooled block exceeded cycle budget");
  } else if (!frame_ok) {
    run.used_fallback = true;
    run.output = fallback;
    run.policy_violations = 0;
    run.child_user_cpu_ns = 0;
    run.child_sys_cpu_ns = 0;
    run.child_max_rss_kb = 0;
    run.program_status = Status::PolicyViolation(
        "pool worker crashed or sent a malformed frame");
  } else if (status == kOk) {
    run.output = std::move(output);
    run.program_status = Status::OK();
  } else {
    run.used_fallback = true;
    run.output = fallback;
    if (status == kDimensionMismatch) {
      run.program_status =
          Status::PolicyViolation("pooled program returned wrong arity");
    } else if (status == kResolverError) {
      run.program_status =
          Status::Internal("pool worker could not resolve program token");
    } else {
      run.program_status =
          Status::NumericalError("pooled program reported an error");
    }
  }
  return finish(std::move(run));
}

ChamberPoolStats ChamberPool::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace gupt
