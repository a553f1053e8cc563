// Durable privacy-budget accounting.
//
// The privacy guarantee of a GUPT deployment is only as strong as its
// ledger: if the service provider restarts and forgets what has been
// spent, the composition bound is silently broken. This module keeps every
// registered dataset's ledger in one line-oriented text file and replays
// it after a restart. Restoring *fails closed*: a ledger entry for an
// unregistered dataset, a total-budget mismatch, a charge that no longer
// fits or a corrupt record is an error, never silently dropped.
//
// A ledger file is a snapshot followed by journal records:
//
//   gupt-ledger v1                             <- snapshot ('#' comments
//   dataset <name> total <epsilon>                and blank lines allowed)
//   charge <epsilon> <label until end of line>
//   ...
//   record <crc> <name> <epsilon> <label until end of line>
//   ...
//
// The snapshot is the v1 format unchanged. It is written whole to
// <path>.tmp, fsync'd, and renamed over <path>, so it is never torn.
// Each record is one charge made after the snapshot: <crc> is the CRC-32
// (IEEE) of the rest of the line after it ("<name> <epsilon> <label>") in
// 8 lowercase hex digits, and <name> must have a dataset line in the
// snapshot. After the first record every line must be a record. Epsilons
// carry 17 significant digits, so they round-trip exactly.
//
// LedgerJournal appends each batch of records with one write() and one
// fdatasync(). A crash mid-append can leave a final line without its
// newline. Restore drops that torn tail and logs it at error level with
// its byte offset. The tail never holds an acknowledged charge: a caller
// acknowledges a charge only after Persist() returns, and Persist() returns
// only after the fdatasync covering the whole batch — acknowledged means
// durable. Any other bad line, a checksum mismatch included, fails the
// restore with a ParseError naming the line.

#ifndef GUPT_DATA_BUDGET_STORE_H_
#define GUPT_DATA_BUDGET_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset_manager.h"

namespace gupt {

/// Serialises the ledgers of every dataset currently registered as a v1
/// snapshot.
std::string SerializeBudgets(const DatasetManager& manager);

/// Atomically replaces `path` with SerializeBudgets(). This is the first
/// LedgerJournal::Persist() of a journal that is then closed, so a crash
/// leaves either the old file or the new one.
Status SaveBudgets(const DatasetManager& manager, const std::string& path);

/// Replays a ledger (snapshot, then records) into `manager`. Every dataset
/// named in the text must already be registered with the *same* total
/// budget and a fresh (unspent) ledger; its recorded charges are
/// re-applied in order. Datasets registered in the manager but absent from
/// the text are left untouched.
Status RestoreBudgets(DatasetManager* manager, const std::string& text);

/// Reads a file and replays it via RestoreBudgets.
Status LoadBudgets(DatasetManager* manager, const std::string& path);

/// The single append-only writer of one ledger file; every thread that
/// persists the ledger goes through it.
class LedgerJournal {
 public:
  explicit LedgerJournal(std::string path);
  ~LedgerJournal();

  LedgerJournal(const LedgerJournal&) = delete;
  LedgerJournal& operator=(const LedgerJournal&) = delete;

  /// Makes every charge now in `manager` durable. The first call writes a
  /// snapshot: SerializeBudgets() to <path>.tmp, fsync'd, renamed over the
  /// path, then the directory fsync'd. It keeps the file open for
  /// appending. So does the first call after a failed write, after the
  /// file was removed or replaced, or after a change in the set of
  /// registrations (a dataset registered, unregistered or re-registered).
  /// Every other call appends one record per charge made since the last
  /// successful call. Concurrent calls coalesce: one writes and syncs all
  /// pending charges while the others wait, and each returns OK only after
  /// an fdatasync covering every charge made before it was called. After
  /// an error no pending charge counts as written, so the next call writes
  /// them. The data.budget_store.save failpoint is evaluated once per
  /// call, before any I/O.
  Status Persist(const DatasetManager& manager);

  /// LoadBudgets() from this journal's file. The next Persist() writes a
  /// snapshot, so charges restored after an earlier Persist() are never
  /// appended a second time.
  Status Load(DatasetManager* manager);

 private:
  /// How far one registration's charges are on disk.
  struct Mark {
    std::weak_ptr<RegisteredDataset> registration;
    std::size_t persisted = 0;
  };

  /// Replaces the file with a snapshot of `registrations` and reopens it
  /// for appending. Requires mu_.
  Status SnapshotLocked(
      const std::vector<std::shared_ptr<RegisteredDataset>>& registrations);

  /// Closes the file, so the next Persist() snapshots. Requires mu_.
  void CloseLocked();

  const std::string path_;
  std::mutex mu_;
  int fd_ = -1;             // open for appending; -1 until the next snapshot
  std::vector<Mark> marks_;  // one per registration, in name order
};

}  // namespace gupt

#endif  // GUPT_DATA_BUDGET_STORE_H_
