#include "data/budget_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>

#include "common/logging.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

constexpr char kMagic[] = "gupt-ledger v1";
constexpr std::string_view kRecord = "record ";
constexpr std::size_t kCrcDigits = 8;

// Dataset names and labels are stored verbatim; names must not contain
// whitespace or newlines (enforced on serialise), labels may contain
// spaces but not newlines.
Status ValidateName(const std::string& name) {
  if (name.empty() || name.find_first_of(" \t\n\r") != std::string::npos) {
    return Status::InvalidArgument(
        "dataset name unsuitable for the ledger format: '" + name + "'");
  }
  return Status::OK();
}

std::string SanitizeLabel(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// 17 significant digits (printf "%.17g"): every double round-trips.
void AppendEpsilon(double value, std::string* out) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17);
  out->append(buf, ec == std::errc() ? end : buf);
}

std::uint32_t Crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : bytes) {
    crc = kTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string CrcHex(std::string_view payload) {
  char hex[kCrcDigits + 1];
  std::snprintf(hex, sizeof(hex), "%08x",
                static_cast<unsigned>(Crc32(payload)));
  return std::string(hex, kCrcDigits);
}

/// Appends "record <crc> <name> <epsilon> <label>\n".
void AppendRecord(const std::string& dataset, const dp::BudgetCharge& charge,
                  std::string* out) {
  std::string payload = dataset;
  payload += ' ';
  AppendEpsilon(charge.epsilon, &payload);
  payload += ' ';
  payload += SanitizeLabel(charge.label);
  *out += kRecord;
  *out += CrcHex(payload);
  *out += ' ';
  *out += payload;
  *out += '\n';
}

/// Parses all of `text` as a double, in the form AppendEpsilon writes.
bool ParseDouble(std::string_view text, double* value) {
  const char* last = text.data() + text.size();
  auto [end, ec] = std::from_chars(text.data(), last, *value);
  return !text.empty() && ec == std::errc() && end == last;
}

/// Splits the next whitespace-separated field off the front of `rest`.
std::string_view NextField(std::string_view* rest) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::size_t start =
      std::min(rest->find_first_not_of(kSpace), rest->size());
  const std::size_t end =
      std::min(rest->find_first_of(kSpace, start), rest->size());
  const std::string_view field = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return field;
}

/// Parses one record line (without its newline).
Status ParseRecord(std::string_view line, std::size_t line_no,
                   std::string* dataset, dp::BudgetCharge* charge) {
  const std::string where = " at line " + std::to_string(line_no);
  const std::size_t payload_at = kRecord.size() + kCrcDigits + 1;
  if (line.size() < payload_at || line.substr(0, kRecord.size()) != kRecord ||
      line[payload_at - 1] != ' ') {
    return Status::ParseError("malformed ledger record" + where);
  }
  const std::string_view payload = line.substr(payload_at);
  if (line.substr(kRecord.size(), kCrcDigits) != CrcHex(payload)) {
    return Status::ParseError("ledger record checksum mismatch" + where);
  }
  const std::size_t name_end = payload.find(' ');
  if (name_end == 0 || name_end == std::string_view::npos) {
    return Status::ParseError("malformed ledger record" + where);
  }
  const std::size_t epsilon_end =
      std::min(payload.find(' ', name_end + 1), payload.size());
  if (!ParseDouble(payload.substr(name_end + 1, epsilon_end - name_end - 1),
                   &charge->epsilon)) {
    return Status::ParseError("malformed ledger record epsilon" + where);
  }
  dataset->assign(payload.substr(0, name_end));
  charge->label = epsilon_end < payload.size()
                      ? std::string(payload.substr(epsilon_end + 1))
                      : std::string();
  return Status::OK();
}

using Declared = std::map<std::string, std::shared_ptr<RegisteredDataset>>;

/// Re-applies one record to the dataset it names, which must have had a
/// dataset line (`declared`) and must be registered in `manager`.
Status ApplyRecord(std::string_view line, std::size_t line_no,
                   const DatasetManager& manager, const Declared& declared) {
  std::string name;
  dp::BudgetCharge charge;
  GUPT_RETURN_IF_ERROR(ParseRecord(line, line_no, &name, &charge));
  auto it = declared.find(name);
  if (it == declared.end()) {
    const std::string where =
        "ledger record at line " + std::to_string(line_no);
    Status registered = manager.Get(name).status();
    return registered.ok()
               ? Status::ParseError(where + " names dataset '" + name +
                                    "' before its dataset line")
               : Status::NotFound(where + ": " + registered.message());
  }
  return it->second->accountant().Charge(
      charge.epsilon, charge.label.empty() ? "restored" : charge.label);
}

/// A final line that may be the start of a record cut short by a crash.
bool IsRecordPrefix(std::string_view line) {
  const std::size_t n = std::min(line.size(), kRecord.size());
  return line.substr(0, n) == kRecord.substr(0, n);
}

/// The registrations the ledger format can name.
std::vector<std::shared_ptr<RegisteredDataset>> Persistable(
    const DatasetManager& manager) {
  std::vector<std::shared_ptr<RegisteredDataset>> registrations =
      manager.Registrations();
  std::erase_if(registrations, [](const auto& dataset) {
    return !ValidateName(dataset->name()).ok();
  });
  return registrations;
}

Status IoError(const std::string& what, const std::string& path, int err) {
  return Status::Internal(what + " " + path + ": " + std::strerror(err));
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// True while `path` still names the file open as `fd`.
bool StillAtPath(int fd, const std::string& path) {
  struct stat open_file {};
  struct stat at_path {};
  return ::fstat(fd, &open_file) == 0 && ::stat(path.c_str(), &at_path) == 0 &&
         open_file.st_dev == at_path.st_dev &&
         open_file.st_ino == at_path.st_ino;
}

Status SyncDirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open ledger directory", dir, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  return rc == 0 ? Status::OK() : IoError("cannot sync ledger directory",
                                          dir, err);
}

/// Writes `body` to <path>.tmp, fsyncs it, renames it over `path` and
/// fsyncs the directory. Returns the file, still open for appending.
Result<int> WriteSnapshot(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open ledger file for writing: " +
                                   tmp + ": " + std::strerror(errno));
  }
  Status status;
  if (!WriteAll(fd, body) || ::fsync(fd) != 0) {
    status = IoError("ledger write failed:", tmp, errno);
  } else if (::rename(tmp.c_str(), path.c_str()) != 0) {
    status = IoError("cannot rename ledger snapshot over", path, errno);
  } else {
    status = SyncDirectoryOf(path);
  }
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return fd;
}

/// The v1 snapshot of `registrations`. Appends to `listed` how many charges
/// it lists for each registration, in order.
std::string SnapshotBody(
    const std::vector<std::shared_ptr<RegisteredDataset>>& registrations,
    std::vector<std::size_t>* listed) {
  std::string out = std::string(kMagic) + "\n";
  for (const auto& dataset : registrations) {
    const dp::AccountantSnapshot snapshot = dataset->accountant().Snapshot();
    out += "dataset ";
    out += dataset->name();
    out += " total ";
    AppendEpsilon(snapshot.total_epsilon, &out);
    out += '\n';
    for (const dp::BudgetCharge& charge : snapshot.charges) {
      out += "charge ";
      AppendEpsilon(charge.epsilon, &out);
      out += ' ';
      out += SanitizeLabel(charge.label);
      out += '\n';
    }
    listed->push_back(snapshot.charges.size());
  }
  return out;
}

}  // namespace

std::string SerializeBudgets(const DatasetManager& manager) {
  std::vector<std::size_t> listed;
  return SnapshotBody(Persistable(manager), &listed);
}

Status SaveBudgets(const DatasetManager& manager, const std::string& path) {
  return LedgerJournal(path).Persist(manager);
}

Status RestoreBudgets(DatasetManager* manager, const std::string& text) {
  if (manager == nullptr) {
    return Status::InvalidArgument("manager is null");
  }
  const std::string_view all(text);
  const std::size_t magic_end = std::min(all.find('\n'), all.size());
  if (all.substr(0, magic_end) != kMagic) {
    return Status::ParseError("ledger missing magic header '" +
                              std::string(kMagic) + "'");
  }

  Declared declared;  // datasets with a dataset line so far
  std::shared_ptr<RegisteredDataset> current;
  std::string label;  // reused by every charge line
  bool in_journal = false;  // after the first record, only records follow
  std::size_t line_no = 1;
  for (std::size_t start = magic_end + 1; start < all.size();) {
    ++line_no;
    const std::size_t offset = start;
    const std::size_t newline = all.find('\n', start);
    const bool terminated = newline != std::string_view::npos;
    const std::size_t end = terminated ? newline : all.size();
    const std::string_view view = all.substr(start, end - start);
    start = end + 1;

    if (!terminated && IsRecordPrefix(view)) {
      // A record whose newline was overwritten is corruption, not a torn
      // append: a torn append is a strict prefix of its record.
      std::string name;
      dp::BudgetCharge charge;
      if (ParseRecord(view.substr(0, view.size() - 1), line_no, &name, &charge)
              .ok()) {
        return Status::ParseError("ledger record lost its newline at line " +
                                  std::to_string(line_no));
      }
      GUPT_LOG(kError) << "ledger restore: dropping torn record at byte offset "
                       << offset << " (line " << line_no << ", "
                       << view.size() << " bytes, no newline)";
      break;
    }
    if (in_journal || view.substr(0, kRecord.size()) == kRecord) {
      in_journal = true;
      GUPT_RETURN_IF_ERROR(ApplyRecord(view, line_no, *manager, declared));
      continue;
    }

    if (view.empty() || view[0] == '#') continue;
    std::string_view rest = view;
    const std::string_view keyword = NextField(&rest);
    if (keyword == "dataset") {
      const std::string name(NextField(&rest));
      const std::string_view total_kw = NextField(&rest);
      double total = 0.0;
      if (name.empty() || total_kw != "total" ||
          !ParseDouble(NextField(&rest), &total)) {
        return Status::ParseError("malformed dataset line " +
                                  std::to_string(line_no));
      }
      GUPT_ASSIGN_OR_RETURN(current, manager->Get(name));
      const dp::PrivacyAccountant& accountant = current->accountant();
      if (std::fabs(accountant.total_epsilon() - total) > 1e-12) {
        return Status::InvalidArgument(
            "ledger total " + std::to_string(total) + " for dataset '" +
            name + "' does not match registered total " +
            std::to_string(accountant.total_epsilon()));
      }
      if (accountant.num_charges() != 0) {
        return Status::InvalidArgument(
            "dataset '" + name +
            "' already has charges; restore requires a fresh ledger");
      }
      declared[name] = current;
    } else if (keyword == "charge") {
      if (current == nullptr) {
        return Status::ParseError("charge before any dataset at line " +
                                  std::to_string(line_no));
      }
      double epsilon = 0.0;
      if (!ParseDouble(NextField(&rest), &epsilon) ||
          !std::isfinite(epsilon)) {
        return Status::ParseError("malformed charge line " +
                                  std::to_string(line_no));
      }
      // The label is the rest of the line after one separating space.
      if (!rest.empty() && rest[0] == ' ') rest.remove_prefix(1);
      label.assign(rest.empty() ? std::string_view("restored") : rest);
      GUPT_RETURN_IF_ERROR(current->accountant().Charge(epsilon, label));
    } else {
      return Status::ParseError("unknown ledger keyword '" +
                                std::string(keyword) + "' at line " +
                                std::to_string(line_no));
    }
  }
  return Status::OK();
}

Status LoadBudgets(DatasetManager* manager, const std::string& path) {
  GUPT_FAILPOINT_STATUS("data.budget_store.load");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open ledger file: " + path);
  }
  // One read into a buffer of the file's size. The spare byte gives the
  // read that meets the end room without growing the buffer; a file that
  // grew since the fstat is still read to its end.
  struct stat info {};
  std::string text(
      ::fstat(fd, &info) == 0 ? static_cast<std::size_t>(info.st_size) + 1
                              : 4096,
      '\0');
  std::size_t size = 0;
  ssize_t n = 0;
  do {
    if (size == text.size()) text.resize(2 * size);
    n = ::read(fd, text.data() + size, text.size() - size);
    if (n > 0) size += static_cast<std::size_t>(n);
  } while (n > 0 || (n < 0 && errno == EINTR));
  const int err = errno;
  ::close(fd);
  if (n < 0) return IoError("cannot read ledger file", path, err);
  text.resize(size);
  return RestoreBudgets(manager, text);
}

LedgerJournal::LedgerJournal(std::string path) : path_(std::move(path)) {}

LedgerJournal::~LedgerJournal() { CloseLocked(); }

void LedgerJournal::CloseLocked() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status LedgerJournal::SnapshotLocked(
    const std::vector<std::shared_ptr<RegisteredDataset>>& registrations) {
  std::vector<std::size_t> listed;
  const std::string body = SnapshotBody(registrations, &listed);
  CloseLocked();
  GUPT_ASSIGN_OR_RETURN(fd_, WriteSnapshot(path_, body));
  marks_.clear();
  for (std::size_t i = 0; i < registrations.size(); ++i) {
    marks_.push_back(Mark{registrations[i], listed[i]});
  }
  return Status::OK();
}

Status LedgerJournal::Persist(const DatasetManager& manager) {
  // Fault site: a failed persist must never un-charge the in-memory
  // accountant — callers report it but the ledger stays authoritative.
  GUPT_FAILPOINT_STATUS("data.budget_store.save");
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::shared_ptr<RegisteredDataset>> registrations =
      Persistable(manager);
  const bool same_registrations = std::equal(
      marks_.begin(), marks_.end(), registrations.begin(), registrations.end(),
      [](const Mark& mark, const std::shared_ptr<RegisteredDataset>& dataset) {
        return mark.registration.lock() == dataset;
      });
  // A file removed or replaced behind our back is rewritten whole: the
  // orphan the fd still names is one a restart would never read.
  if (fd_ < 0 || !same_registrations || !StillAtPath(fd_, path_)) {
    return SnapshotLocked(registrations);
  }
  // One record per charge made since the last write, each dataset's in
  // charge order — the order restore re-applies them in.
  std::string batch;
  std::vector<std::size_t> persisted(marks_.size());
  for (std::size_t i = 0; i < registrations.size(); ++i) {
    const std::vector<dp::BudgetCharge> fresh =
        registrations[i]->accountant().ChargesSince(marks_[i].persisted);
    for (const dp::BudgetCharge& charge : fresh) {
      AppendRecord(registrations[i]->name(), charge, &batch);
    }
    persisted[i] = marks_[i].persisted + fresh.size();
  }
  if (batch.empty()) return Status::OK();
  if (!WriteAll(fd_, batch) || ::fdatasync(fd_) != 0) {
    // Part of the batch may be on disk, so nothing may follow it: the next
    // call re-snapshots by rename instead of appending.
    const int err = errno;
    CloseLocked();
    return IoError("ledger append failed:", path_, err);
  }
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    marks_[i].persisted = persisted[i];
  }
  return Status::OK();
}

Status LedgerJournal::Load(DatasetManager* manager) {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
  return LoadBudgets(manager, path_);
}

}  // namespace gupt
