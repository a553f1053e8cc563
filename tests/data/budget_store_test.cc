#include "data/budget_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

Dataset Tiny() { return Dataset::FromColumn({1.0, 2.0, 3.0}).value(); }

void FillManagerWithCharges(DatasetManager* out) {
  DatasetManager& manager = *out;
  DatasetOptions opts;
  opts.total_epsilon = 5.0;
  EXPECT_TRUE(manager.Register("alpha", Tiny(), opts).ok());
  opts.total_epsilon = 2.0;
  EXPECT_TRUE(manager.Register("beta", Tiny(), opts).ok());
  EXPECT_TRUE(
      manager.Get("alpha").value()->accountant().Charge(1.5, "q one").ok());
  EXPECT_TRUE(
      manager.Get("alpha").value()->accountant().Charge(0.5, "q two").ok());
  EXPECT_TRUE(
      manager.Get("beta").value()->accountant().Charge(0.25, "other").ok());
}

void FillFreshManager(DatasetManager* out) {
  DatasetManager& manager = *out;
  DatasetOptions opts;
  opts.total_epsilon = 5.0;
  EXPECT_TRUE(manager.Register("alpha", Tiny(), opts).ok());
  opts.total_epsilon = 2.0;
  EXPECT_TRUE(manager.Register("beta", Tiny(), opts).ok());
}

TEST(BudgetStoreTest, RoundTripRestoresSpending) {
  DatasetManager original;
  FillManagerWithCharges(&original);
  std::string text = SerializeBudgets(original);

  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(RestoreBudgets(&restored, text).ok());

  auto alpha = restored.Get("alpha").value();
  EXPECT_DOUBLE_EQ(alpha->accountant().spent_epsilon(), 2.0);
  EXPECT_EQ(alpha->accountant().num_charges(), 2u);
  auto charges = alpha->accountant().charges();
  EXPECT_EQ(charges[0].label, "q one");  // labels with spaces survive
  EXPECT_DOUBLE_EQ(charges[1].epsilon, 0.5);

  auto beta = restored.Get("beta").value();
  EXPECT_DOUBLE_EQ(beta->accountant().spent_epsilon(), 0.25);
}

TEST(BudgetStoreTest, RestoredLedgerKeepsEnforcing) {
  DatasetManager original;
  FillManagerWithCharges(&original);
  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(RestoreBudgets(&restored, SerializeBudgets(original)).ok());
  auto& accountant = restored.Get("alpha").value()->accountant();
  // 2.0 of 5.0 spent: 3.5 must be refused, 3.0 admitted.
  EXPECT_FALSE(accountant.Charge(3.5, "too much").ok());
  EXPECT_TRUE(accountant.Charge(3.0, "exact fit").ok());
}

TEST(BudgetStoreTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/gupt_ledger_test.txt";
  DatasetManager original;
  FillManagerWithCharges(&original);
  ASSERT_TRUE(SaveBudgets(original, path).ok());

  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  EXPECT_DOUBLE_EQ(
      restored.Get("alpha").value()->accountant().spent_epsilon(), 2.0);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, LoadMissingFileIsNotFound) {
  DatasetManager manager;
  FillFreshManager(&manager);
  EXPECT_EQ(LoadBudgets(&manager, "/nonexistent/ledger").code(),
            StatusCode::kNotFound);
}

TEST(BudgetStoreTest, FailsClosedOnUnknownDataset) {
  DatasetManager original;
  FillManagerWithCharges(&original);
  std::string text = SerializeBudgets(original);
  DatasetManager missing_beta;
  DatasetOptions opts;
  opts.total_epsilon = 5.0;
  ASSERT_TRUE(missing_beta.Register("alpha", Tiny(), opts).ok());
  EXPECT_EQ(RestoreBudgets(&missing_beta, text).code(),
            StatusCode::kNotFound);
}

TEST(BudgetStoreTest, FailsClosedOnTotalMismatch) {
  DatasetManager original;
  FillManagerWithCharges(&original);
  std::string text = SerializeBudgets(original);
  DatasetManager wrong_total;
  DatasetOptions opts;
  opts.total_epsilon = 99.0;  // alpha was registered with 5.0
  ASSERT_TRUE(wrong_total.Register("alpha", Tiny(), opts).ok());
  opts.total_epsilon = 2.0;
  ASSERT_TRUE(wrong_total.Register("beta", Tiny(), opts).ok());
  EXPECT_EQ(RestoreBudgets(&wrong_total, text).code(),
            StatusCode::kInvalidArgument);
}

TEST(BudgetStoreTest, FailsClosedOnAlreadyChargedLedger) {
  DatasetManager original;
  FillManagerWithCharges(&original);
  std::string text = SerializeBudgets(original);
  DatasetManager dirty;
  FillFreshManager(&dirty);
  ASSERT_TRUE(
      dirty.Get("alpha").value()->accountant().Charge(0.1, "pre").ok());
  EXPECT_FALSE(RestoreBudgets(&dirty, text).ok());
}

TEST(BudgetStoreTest, RejectsGarbage) {
  DatasetManager manager;
  FillFreshManager(&manager);
  EXPECT_EQ(RestoreBudgets(&manager, "not a ledger").code(),
            StatusCode::kParseError);
  EXPECT_FALSE(
      RestoreBudgets(&manager, "gupt-ledger v1\ncharge 0.5 orphan\n").ok());
  EXPECT_FALSE(
      RestoreBudgets(&manager, "gupt-ledger v1\nbogus line here\n").ok());
  EXPECT_FALSE(
      RestoreBudgets(&manager, "gupt-ledger v1\ndataset alpha banana 5\n")
          .ok());
}

TEST(BudgetStoreTest, CommentsAndBlankLinesIgnored) {
  DatasetManager manager;
  FillFreshManager(&manager);
  std::string text =
      "gupt-ledger v1\n"
      "# a comment\n"
      "\n"
      "dataset alpha total 5\n"
      "charge 1 first\n";
  ASSERT_TRUE(RestoreBudgets(&manager, text).ok());
  EXPECT_DOUBLE_EQ(
      manager.Get("alpha").value()->accountant().spent_epsilon(), 1.0);
}

TEST(BudgetStoreTest, InjectedSaveFaultNeverUnchargesTheAccountant) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
  }
  failpoints::DisarmAll();
  // A failed persist is an operator problem, not a privacy refund: the
  // in-memory accountant keeps every charge, and the on-disk file is
  // either the previous consistent snapshot or absent — never a torn
  // write that under-reports spending.
  std::string path = ::testing::TempDir() + "/gupt_ledger_fault_test.txt";
  std::remove(path.c_str());
  DatasetManager manager;
  FillManagerWithCharges(&manager);
  {
    failpoints::ScopedFailpoint fp("data.budget_store.save",
                                   failpoints::Config{});
    Status saved = SaveBudgets(manager, path);
    ASSERT_FALSE(saved.ok());
    EXPECT_TRUE(failpoints::IsInjected(saved));
    EXPECT_EQ(fp.fires(), 1u);
  }
  EXPECT_DOUBLE_EQ(
      manager.Get("alpha").value()->accountant().spent_epsilon(), 2.0);
  // The injected failure fired before the write: no file was created.
  FILE* file = std::fopen(path.c_str(), "r");
  EXPECT_EQ(file, nullptr);
  if (file != nullptr) std::fclose(file);

  // Disarmed, the same save lands and replays cleanly.
  ASSERT_TRUE(SaveBudgets(manager, path).ok());
  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  EXPECT_DOUBLE_EQ(
      restored.Get("alpha").value()->accountant().spent_epsilon(), 2.0);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, InjectedLoadFaultLeavesTheManagerUntouched) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
  }
  failpoints::DisarmAll();
  std::string path = ::testing::TempDir() + "/gupt_ledger_fault_test2.txt";
  DatasetManager original;
  FillManagerWithCharges(&original);
  ASSERT_TRUE(SaveBudgets(original, path).ok());

  DatasetManager restored;
  FillFreshManager(&restored);
  {
    failpoints::ScopedFailpoint fp("data.budget_store.load",
                                   failpoints::Config{});
    Status loaded = LoadBudgets(&restored, path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(failpoints::IsInjected(loaded));
  }
  // Fail closed: no partial replay reached the ledgers.
  EXPECT_DOUBLE_EQ(
      restored.Get("alpha").value()->accountant().spent_epsilon(), 0.0);
  EXPECT_DOUBLE_EQ(
      restored.Get("beta").value()->accountant().spent_epsilon(), 0.0);

  // Disarmed, the restore succeeds against the same (still fresh) manager.
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  EXPECT_DOUBLE_EQ(
      restored.Get("alpha").value()->accountant().spent_epsilon(), 2.0);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, EmptyManagerSerializesHeaderOnly) {
  DatasetManager manager;
  EXPECT_EQ(SerializeBudgets(manager), "gupt-ledger v1\n");
  // And restoring a header-only ledger into anything is a no-op success.
  DatasetManager other;
  FillFreshManager(&other);
  EXPECT_TRUE(RestoreBudgets(&other, "gupt-ledger v1\n").ok());
}

// --- the append-only journal -----------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

dp::PrivacyAccountant& Accountant(DatasetManager* manager,
                                  const std::string& name) {
  return manager->Get(name).value()->accountant();
}

/// Restores `text` into a fresh alpha/beta manager.
Status RestoreIntoFresh(const std::string& text, DatasetManager* restored) {
  FillFreshManager(restored);
  return RestoreBudgets(restored, text);
}

/// True when both managers hold the same ledgers, charge for charge and
/// in order, with bit-identical totals.
void ExpectSameLedgers(const DatasetManager& expected,
                       const DatasetManager& actual) {
  std::vector<DatasetBudgetSnapshot> a = expected.BudgetSnapshots();
  std::vector<DatasetBudgetSnapshot> b = actual.BudgetSnapshots();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].dataset);
    EXPECT_EQ(a[i].dataset, b[i].dataset);
    EXPECT_EQ(a[i].budget.spent_epsilon, b[i].budget.spent_epsilon);
    ASSERT_EQ(a[i].budget.charges.size(), b[i].budget.charges.size());
    for (std::size_t k = 0; k < a[i].budget.charges.size(); ++k) {
      EXPECT_EQ(a[i].budget.charges[k].label, b[i].budget.charges[k].label);
      EXPECT_EQ(a[i].budget.charges[k].epsilon,
                b[i].budget.charges[k].epsilon);
    }
  }
}

/// Lines of `text` starting with "record ".
std::vector<std::string> RecordLines(const std::string& text) {
  std::vector<std::string> records;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("record ", 0) == 0) records.push_back(line);
  }
  return records;
}

/// Collects error-level log lines while alive.
struct ErrorLog {
  ErrorLog() {
    Logger::Get().set_sink([this](LogLevel level, const std::string& line) {
      if (level == LogLevel::kError) lines.push_back(line);
    });
  }
  ~ErrorLog() { Logger::Get().set_sink(nullptr); }
  ErrorLog(const ErrorLog&) = delete;
  ErrorLog& operator=(const ErrorLog&) = delete;

  std::vector<std::string> lines;
};

/// A ledger file holding a snapshot of FillManagerWithCharges() followed by
/// four appended records; `manager` ends up holding the same ledger.
std::string JournalWithRecords(const std::string& path,
                               DatasetManager* manager) {
  std::remove(path.c_str());
  FillManagerWithCharges(manager);
  LedgerJournal journal(path);
  EXPECT_TRUE(journal.Persist(*manager).ok());
  EXPECT_TRUE(Accountant(manager, "alpha").Charge(0.125, "r one").ok());
  EXPECT_TRUE(Accountant(manager, "beta").Charge(0.25, "r two").ok());
  EXPECT_TRUE(journal.Persist(*manager).ok());
  EXPECT_TRUE(Accountant(manager, "alpha").Charge(0.0625, "r three").ok());
  EXPECT_TRUE(journal.Persist(*manager).ok());
  EXPECT_TRUE(Accountant(manager, "beta").Charge(0.5, "r four").ok());
  EXPECT_TRUE(journal.Persist(*manager).ok());
  std::string text = ReadFile(path);
  std::remove(path.c_str());
  return text;
}

TEST(BudgetStoreTest, JournalTakesOverAV1FileAndAppendsAfterIt) {
  std::string path = ::testing::TempDir() + "/gupt_ledger_v1_migrate.txt";
  // A v1 ledger as the service benchmark writes its history.
  const std::string v1 =
      "gupt-ledger v1\n"
      "dataset alpha total 5\n"
      "charge 1.5 q one\n"
      "charge 0.5 q two\n"
      "dataset beta total 2\n"
      "charge 0.25 other\n";
  WriteFile(path, v1);
  DatasetManager manager;
  FillFreshManager(&manager);
  ASSERT_TRUE(LoadBudgets(&manager, path).ok());

  // The first persist re-snapshots the restored ledger by rename.
  LedgerJournal journal(path);
  ASSERT_TRUE(journal.Persist(manager).ok());
  const std::string snapshot = ReadFile(path);
  EXPECT_EQ(snapshot, SerializeBudgets(manager));
  EXPECT_EQ(snapshot, v1);  // same grammar, same digits
  FILE* tmp = std::fopen((path + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr);  // renamed away, not left behind
  if (tmp != nullptr) std::fclose(tmp);

  // Later charges append records after it; nothing before them moves.
  ASSERT_TRUE(Accountant(&manager, "beta").Charge(0.75, "late one").ok());
  ASSERT_TRUE(Accountant(&manager, "alpha").Charge(1.0, "late two").ok());
  ASSERT_TRUE(journal.Persist(manager).ok());
  ASSERT_TRUE(journal.Persist(manager).ok());  // nothing new: no-op
  const std::string text = ReadFile(path);
  ASSERT_EQ(text.substr(0, snapshot.size()), snapshot);
  const std::vector<std::string> records = RecordLines(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(text.size(),
            snapshot.size() + records[0].size() + records[1].size() + 2);
  EXPECT_NE(records[0].find(" alpha 1 late two"), std::string::npos);
  EXPECT_NE(records[1].find(" beta 0.75 late one"), std::string::npos);

  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  ExpectSameLedgers(manager, restored);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, TornLastRecordRestoresFullOrOneShortNeverLess) {
  DatasetManager manager;
  const std::string text = JournalWithRecords(
      ::testing::TempDir() + "/gupt_ledger_torn.txt", &manager);
  ASSERT_EQ(RecordLines(text).size(), 4u);
  ASSERT_EQ(text.back(), '\n');
  const std::size_t last_start = text.rfind('\n', text.size() - 2) + 1;
  const double full_beta = Accountant(&manager, "beta").spent_epsilon();
  ErrorLog log;
  std::vector<std::string>& errors = log.lines;
  // Cutting anywhere from the last record's first byte up to (not
  // including) its newline leaves the ledger one charge short, and a cut
  // inside the record is logged with the byte offset where it starts; the
  // whole file is the full ledger.
  for (std::size_t cut = last_start; cut <= text.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    errors.clear();
    DatasetManager restored;
    Status status = RestoreIntoFresh(text.substr(0, cut), &restored);
    ASSERT_TRUE(status.ok()) << status;
    const bool full = cut == text.size();
    EXPECT_EQ(Accountant(&restored, "alpha").num_charges(), 4u);
    EXPECT_EQ(Accountant(&restored, "beta").num_charges(), full ? 3u : 2u);
    EXPECT_EQ(Accountant(&restored, "beta").spent_epsilon(),
              full ? full_beta : full_beta - 0.5);
    if (full) ExpectSameLedgers(manager, restored);
    const bool torn = cut > last_start && !full;
    ASSERT_EQ(errors.size(), torn ? 1u : 0u);
    if (torn) {
      EXPECT_NE(errors[0].find("byte offset " + std::to_string(last_start)),
                std::string::npos)
          << errors[0];
    }
  }
}

TEST(BudgetStoreTest, FlippedByteInAnyRecordIsAParseError) {
  DatasetManager manager;
  const std::string text = JournalWithRecords(
      ::testing::TempDir() + "/gupt_ledger_flip.txt", &manager);
  const std::size_t records_start = text.find("\nrecord ") + 1;
  ASSERT_GT(records_start, 0u);
  // Every byte of every record, its newline included, under three masks.
  for (std::size_t at = records_start; at < text.size(); ++at) {
    for (unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string corrupt = text;
      corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
      DatasetManager restored;
      Status status = RestoreIntoFresh(corrupt, &restored);
      EXPECT_EQ(status.code(), StatusCode::kParseError)
          << "byte " << at << " mask " << static_cast<int>(mask) << ": "
          << status;
      EXPECT_NE(status.message().find("line"), std::string::npos) << status;
    }
  }
}

/// The record line a journal writes for one charge to a dataset `name`
/// registered with budget `total`. The scratch file is named after the
/// dataset and this process, so tests that ctest runs in parallel never
/// share it.
std::string WrittenRecord(const std::string& name, double total,
                          double epsilon, const std::string& label) {
  const std::string path = ::testing::TempDir() + "/gupt_ledger_record_" +
                           name + "_" + std::to_string(getpid()) + ".txt";
  std::remove(path.c_str());
  DatasetManager manager;
  DatasetOptions opts;
  opts.total_epsilon = total;
  EXPECT_TRUE(manager.Register(name, Tiny(), opts).ok());
  LedgerJournal journal(path);
  EXPECT_TRUE(journal.Persist(manager).ok());
  EXPECT_TRUE(Accountant(&manager, name).Charge(epsilon, label).ok());
  EXPECT_TRUE(journal.Persist(manager).ok());
  const std::vector<std::string> records = RecordLines(ReadFile(path));
  std::remove(path.c_str());
  EXPECT_EQ(records.size(), 1u);
  return records.empty() ? std::string() : records[0];
}

/// A fresh alpha/beta snapshot followed by `record`.
std::string AlphaBetaThen(const std::string& record) {
  DatasetManager alpha_beta;
  FillFreshManager(&alpha_beta);
  return SerializeBudgets(alpha_beta) + record + "\n";
}

TEST(BudgetStoreTest, RecordForAnUnregisteredDatasetFailsClosed) {
  const std::string text = AlphaBetaThen(WrittenRecord("gamma", 3.0, 1.0, "g"));
  DatasetManager restored;
  EXPECT_EQ(RestoreIntoFresh(text, &restored).code(), StatusCode::kNotFound);

  // Registered, but the file never declared it: still refused.
  DatasetManager all_three;
  FillFreshManager(&all_three);
  DatasetOptions opts;
  opts.total_epsilon = 3.0;
  ASSERT_TRUE(all_three.Register("gamma", Tiny(), opts).ok());
  Status status = RestoreBudgets(&all_three, text);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("before its dataset line"),
            std::string::npos)
      << status;
}

TEST(BudgetStoreTest, RecordOverTheBudgetFailsClosed) {
  // A well-formed record whose charge no longer fits the registered total
  // is refused by the accountant, as a v1 charge line would be.
  const std::string text =
      AlphaBetaThen(WrittenRecord("alpha", 100.0, 99.0, "too much"));
  DatasetManager restored;
  EXPECT_EQ(RestoreIntoFresh(text, &restored).code(),
            StatusCode::kBudgetExhausted);
}

TEST(BudgetStoreTest, ReRegisteredDatasetIsJournaledFromItsFirstCharge) {
  // Watermarks belong to registrations, not names: after an unregister
  // and a re-register under the same name, the new ledger's first charges
  // must still reach the file.
  const std::string path = ::testing::TempDir() + "/gupt_ledger_reregister.txt";
  std::remove(path.c_str());
  DatasetManager manager;
  FillManagerWithCharges(&manager);
  LedgerJournal journal(path);
  ASSERT_TRUE(journal.Persist(manager).ok());
  ASSERT_TRUE(manager.Unregister("alpha").ok());
  DatasetOptions opts;
  opts.total_epsilon = 5.0;
  ASSERT_TRUE(manager.Register("alpha", Tiny(), opts).ok());
  ASSERT_TRUE(Accountant(&manager, "alpha").Charge(0.5, "fresh").ok());
  ASSERT_TRUE(journal.Persist(manager).ok());

  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  ExpectSameLedgers(manager, restored);
  EXPECT_EQ(Accountant(&restored, "alpha").num_charges(), 1u);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, RemovedOrReplacedFileIsRewrittenWhole) {
  // Appending to a file no longer at the path would lose every later
  // charge at the next restart; the journal re-snapshots instead.
  const std::string path = ::testing::TempDir() + "/gupt_ledger_removed.txt";
  std::remove(path.c_str());
  DatasetManager manager;
  FillManagerWithCharges(&manager);
  LedgerJournal journal(path);
  ASSERT_TRUE(journal.Persist(manager).ok());
  ASSERT_EQ(std::remove(path.c_str()), 0);
  ASSERT_TRUE(Accountant(&manager, "alpha").Charge(0.25, "after rm").ok());
  ASSERT_TRUE(journal.Persist(manager).ok());
  EXPECT_EQ(ReadFile(path), SerializeBudgets(manager));

  WriteFile(path + ".other", "gupt-ledger v1\n");
  ASSERT_EQ(std::rename((path + ".other").c_str(), path.c_str()), 0);
  ASSERT_TRUE(Accountant(&manager, "beta").Charge(0.5, "after mv").ok());
  ASSERT_TRUE(journal.Persist(manager).ok());
  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  ExpectSameLedgers(manager, restored);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, InjectedPersistFaultLeavesChargesForTheNextPersist) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
  }
  failpoints::DisarmAll();
  const std::string path = ::testing::TempDir() + "/gupt_ledger_fault3.txt";
  std::remove(path.c_str());
  DatasetManager manager;
  FillManagerWithCharges(&manager);
  LedgerJournal journal(path);
  ASSERT_TRUE(journal.Persist(manager).ok());
  const std::string before = ReadFile(path);
  ASSERT_TRUE(Accountant(&manager, "alpha").Charge(0.25, "pending").ok());
  {
    failpoints::ScopedFailpoint fp("data.budget_store.save",
                                   failpoints::Config{});
    Status persisted = journal.Persist(manager);
    EXPECT_TRUE(failpoints::IsInjected(persisted));
    EXPECT_EQ(fp.evaluations(), 1u);  // once per persist, before any I/O
  }
  EXPECT_EQ(ReadFile(path), before);
  ASSERT_TRUE(journal.Persist(manager).ok());
  EXPECT_EQ(RecordLines(ReadFile(path)).size(), 1u);
  DatasetManager restored;
  FillFreshManager(&restored);
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  ExpectSameLedgers(manager, restored);
  std::remove(path.c_str());
}

TEST(BudgetStoreTest, InterleavedPersistersReloadEqualsTheLedgerInOrder) {
  // Eight threads charge two datasets and persist after every charge,
  // 2,000 persists in all. A full-file rewrite without a lock could leave
  // a torn or stale file here; the journal must reload charge for charge.
  const std::string path = ::testing::TempDir() + "/gupt_ledger_race.txt";
  std::remove(path.c_str());
  DatasetManager manager;
  DatasetOptions opts;
  opts.total_epsilon = 1e6;
  ASSERT_TRUE(manager.Register("alpha", Tiny(), opts).ok());
  ASSERT_TRUE(manager.Register("beta", Tiny(), opts).ok());
  LedgerJournal journal(path);
  constexpr int kThreads = 8;
  constexpr int kPersistsPerThread = 250;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPersistsPerThread; ++i) {
        const std::string name = (t + i) % 2 == 0 ? "alpha" : "beta";
        const double epsilon = 1.0 / static_cast<double>(1 << (i % 4));
        std::string label = "t";
        label += std::to_string(t);
        label += " q";
        label += std::to_string(i);
        if (!Accountant(&manager, name).Charge(epsilon, label).ok() ||
            !journal.Persist(manager).ok()) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  DatasetManager restored;
  ASSERT_TRUE(restored.Register("alpha", Tiny(), opts).ok());
  ASSERT_TRUE(restored.Register("beta", Tiny(), opts).ok());
  ASSERT_TRUE(LoadBudgets(&restored, path).ok());
  ExpectSameLedgers(manager, restored);
  EXPECT_EQ(Accountant(&restored, "alpha").num_charges() +
                Accountant(&restored, "beta").num_charges(),
            static_cast<std::size_t>(kThreads * kPersistsPerThread));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gupt
