// Pre-warmed pool of process chambers.
//
// ProcessChamber pays a fork() per block: the paper's AppArmor-confined
// computation instances map naturally onto one subprocess per block, but
// at service rates the fork/page-table/exit cost dominates small blocks.
// ChamberPool forks N worker processes ONCE, at service start, from a
// single-threaded point, and thereafter *leases* a worker per block over a
// pipe protocol of one frame each way per lease (packed, native byte
// order):
//
//   parent --> worker   cmd u8 | token_len u32 | num_dims u32 |
//                       expected_dims u32 | num_rows u64 | token |
//                       num_dims x num_rows f64, columns in dim order
//   worker --> parent   status u8 | violations u64 | cpu_user_ns i64 |
//                       cpu_sys_ns i64 | max_rss_kb i64, then
//                       n u64 | n x f64 when status is ok
//
// The parent sends its frame with one writev whose iovecs point straight
// into the block's column store; the worker reads the command byte and
// the header, then fills the token and its column vectors with one readv,
// and answers with one write. Both sides resume short transfers, so a
// block larger than the pipe buffer crosses in pieces. The crash and
// shutdown commands are a bare cmd byte.
//
// No shared memory: each worker receives only its own block's bytes, by
// copy through its pipe. Mapping the gathered store (or any shared
// segment) into workers would let a program read the query's other
// blocks, and a block output that depends on more than one block breaks
// the sample-and-aggregate sensitivity argument (paper §4, §6.2). The
// copy is the price of that isolation.
//
// Worker lifecycle (see docs/architecture.md "Chamber lifecycle"):
//
//   spawn -> idle -> leased -> (success) reset -> idle        reuse
//                          \-> (crash/EOF/timeout) discard -> respawn
//
// A worker that completes a lease cleanly is reset and reused; a worker
// that dies mid-lease (real crash or the exec.pool.lease crash failpoint)
// yields EOF on the response pipe — exactly the signal a crashed
// ProcessChamber child produces — so the parent substitutes the fallback
// output, keeps the DP accounting identical, and respawns the slot.
//
// Program shipping: pre-forked workers cannot receive std::function
// factories, so programs cross the pipe as an opaque *token* resolved
// inside the worker by a ProgramResolver captured at fork time (install it
// before Start()). Factories without a token keep the per-block
// ProcessChamber fork path.
//
// Isolation properties match ProcessChamber with one deliberate relaxation:
// a worker's address space survives across leases of *different* queries.
// Program instances are still constructed fresh per lease and scratch
// state lives in per-lease ChamberServices, so the §6.2 state-attack
// defence (no information flow between per-block executions through
// program state) holds; a malicious program that corrupts the worker
// process itself crashes the lease and the worker is discarded, never
// reused.

#ifndef GUPT_EXEC_CHAMBER_POOL_H_
#define GUPT_EXEC_CHAMBER_POOL_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vec.h"
#include "data/dataset.h"
#include "exec/chamber.h"
#include "exec/program.h"
#include "obs/metrics.h"

namespace gupt {

/// Maps an opaque program token to a factory, inside the worker. Captured
/// by workers at fork: install before Start(); later changes are invisible
/// to already-running workers.
using ProgramResolver =
    std::function<Result<ProgramFactory>(const std::string& token)>;

/// Point-in-time pool statistics (for /profilez-style introspection and
/// the bench harness; the same values are exported as
/// gupt_chamber_pool_* metrics).
struct ChamberPoolStats {
  std::size_t workers_alive = 0;
  std::uint64_t spawned = 0;
  std::uint64_t leases = 0;
  std::uint64_t resets = 0;
  std::uint64_t respawns = 0;
  std::uint64_t shipped_bytes = 0;
};

class ChamberPool {
 public:
  /// `num_workers` must be >= 1. The policy's deadline/pad_to_deadline are
  /// enforced parent-side per lease; scratch/message limits apply inside
  /// the worker's per-lease ChamberServices.
  ChamberPool(ChamberPolicy policy, std::size_t num_workers);
  ~ChamberPool();

  ChamberPool(const ChamberPool&) = delete;
  ChamberPool& operator=(const ChamberPool&) = delete;

  /// Installs the token resolver workers capture at fork. Must be called
  /// before Start().
  void SetProgramResolver(ProgramResolver resolver);

  /// Forks the workers. MUST be called from a single-threaded point (the
  /// same fork/threads caveat as ProcessChamber); spawn failures of
  /// individual slots are tolerated — the slot is retried at the next
  /// lease — but having zero live workers after Start is an error.
  Status Start();

  /// Leases a worker, ships `block`'s columns, and awaits the result.
  /// Mirrors ProcessChamber::Execute semantics: program misbehaviour,
  /// crashes, and deadline overruns all become `fallback` substitutions
  /// (never an error status), so the aggregate's sensitivity analysis is
  /// untouched. Errors only on caller bugs or a pool with no leasable
  /// worker. Thread-safe; blocks while all workers are leased.
  Result<ChamberRun> Execute(const std::string& program_token,
                             const DatasetView& block, const Row& fallback);

  /// Stops all workers (idempotent; also run by the destructor).
  void Shutdown();

  ChamberPoolStats Stats() const;
  const ChamberPolicy& policy() const { return policy_; }
  std::size_t num_workers() const { return slots_.size(); }

 private:
  struct Worker {
    pid_t pid = -1;
    int to_child = -1;    // parent writes request frames here
    int from_child = -1;  // parent reads response frames here
    bool alive = false;
  };

  // All three run with mu_ held.
  Status SpawnSlotLocked(std::size_t slot);
  void DiscardSlotLocked(std::size_t slot, bool kill);
  int LeaseSlotLocked(std::unique_lock<std::mutex>* lock);

  [[noreturn]] void WorkerMain(int request_fd, int response_fd) const;

  ChamberPolicy policy_;
  ProgramResolver resolver_;

  mutable std::mutex mu_;
  std::condition_variable worker_free_;
  std::vector<Worker> slots_;
  std::vector<std::size_t> free_slots_;
  std::size_t leased_count_ = 0;
  bool started_ = false;
  bool shutdown_ = false;

  ChamberPoolStats stats_;

  obs::Gauge* workers_gauge_;
  obs::Counter* spawned_counter_;
  obs::Counter* leases_counter_;
  obs::Counter* resets_counter_;
  obs::Counter* respawns_counter_;
  obs::Counter* shipped_bytes_counter_;
  obs::Histogram* lease_wait_histogram_;
};

}  // namespace gupt

#endif  // GUPT_EXEC_CHAMBER_POOL_H_
