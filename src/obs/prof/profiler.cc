#include "obs/prof/profiler.h"

#include <cxxabi.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

namespace gupt {
namespace obs {
namespace prof {
namespace {

constexpr int kMaxFrames = 64;

// One sample slot. `depth` doubles as the commit flag: the handler fills
// `frames`/`stage_tag` first and publishes with a release store of the
// frame count; the collector reads depth with acquire and skips
// uncommitted (zero) slots. backtrace() never returns 0 frames from a
// live thread, so 0 is unambiguous.
struct SampleSlot {
  std::atomic<int> depth{0};
  const char* stage_tag = nullptr;
  void* frames[kMaxFrames];
};

// Handler-visible state. File-scope (not members) so the async-signal
// handler touches only plain atomics and a stable array pointer. The
// buffer is reused across Start() calls and never freed while armed, so
// a straggler handler on another thread can at worst write into a slot
// the collector already skipped.
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
SampleSlot* g_slots = nullptr;
std::size_t g_capacity = 0;

thread_local const char* tl_stage_tag = nullptr;

// Async-signal-safe sample capture, shared by the SIGPROF handler and
// TickForTesting. Returns false when the buffer is full. Always inlined,
// at -O0 too: its own frame would be unsymbolized (internal linkage), and
// FoldedStacks trims the machinery only up to the first frame it cannot
// name.
[[gnu::always_inline]] inline bool RecordSample() {
  std::size_t idx = g_next.fetch_add(1, std::memory_order_relaxed);
  if (idx >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SampleSlot& slot = g_slots[idx];
  slot.stage_tag = tl_stage_tag;
  int depth = backtrace(slot.frames, kMaxFrames);
  if (depth <= 0) {
    // Publish an empty-but-committed marker so the slot is not mistaken
    // for in-flight; FoldedStacks drops depth-0 stacks.
    depth = 0;
  }
  slot.depth.store(depth == 0 ? -1 : depth, std::memory_order_release);
  return true;
}

void SigprofHandler(int /*signo*/) {
  int saved_errno = errno;
  if (g_armed.load(std::memory_order_relaxed)) {
    RecordSample();
  }
  errno = saved_errno;
}

std::mutex& ControlMutex() {
  static std::mutex mu;
  return mu;
}

bool g_handler_installed = false;
std::chrono::steady_clock::time_point g_started_at;
ProfilerOptions g_options;

// Symbolize one return address, with caching. Produces a demangled
// function name with spaces and semicolons scrubbed (both are
// structural in the folded format), or `[0xADDR]` when the symbol table
// has nothing.
const std::string& SymbolFor(void* pc, std::map<void*, std::string>* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;

  std::string name;
  char** symbols = backtrace_symbols(&pc, 1);
  if (symbols != nullptr) {
    // glibc format: "module(mangled+0xoff) [0xaddr]".
    const char* line = symbols[0];
    const char* open = strchr(line, '(');
    const char* plus = open != nullptr ? strchr(open, '+') : nullptr;
    if (open != nullptr && plus != nullptr && plus > open + 1) {
      std::string mangled(open + 1, plus);
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
      if (status == 0 && demangled != nullptr) {
        name = demangled;
      } else {
        name = mangled;
      }
      free(demangled);
    }
    free(symbols);
  }
  if (name.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[%p]", pc);
    name = buf;
  }
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
  return cache->emplace(pc, std::move(name)).first->second;
}

// Frames belonging to the sampling machinery itself (handler, signal
// trampoline, backtrace) — trimmed from the innermost end so folded
// stacks start at the interrupted user frame.
bool IsMachineryFrame(const std::string& name) {
  if (name.find("__restore_rt") != std::string::npos) return true;
  if (name.compare(0, 9, "backtrace") == 0) return true;
  if (name.find("obs::prof::") != std::string::npos &&
      (name.find("RecordSample") != std::string::npos ||
       name.find("SigprofHandler") != std::string::npos ||
       name.find("TickForTesting") != std::string::npos)) {
    return true;
  }
  return false;
}

}  // namespace

ScopedStageTag::ScopedStageTag(const char* tag) : previous_(tl_stage_tag) {
  tl_stage_tag = tag;
}

ScopedStageTag::~ScopedStageTag() { tl_stage_tag = previous_; }

const char* CurrentStageTag() { return tl_stage_tag; }

Profiler& Profiler::Get() {
  static Profiler* instance = new Profiler();
  return *instance;
}

bool Profiler::Start(const ProfilerOptions& options) {
  std::lock_guard<std::mutex> lock(ControlMutex());
  if (g_armed.load(std::memory_order_relaxed)) return false;
  if (options.hz < 1 || options.hz > 1000 || options.max_samples == 0) {
    return false;
  }

  if (g_slots == nullptr || g_capacity < options.max_samples) {
    delete[] g_slots;
    g_slots = new SampleSlot[options.max_samples];
    g_capacity = options.max_samples;
  } else {
    for (std::size_t i = 0; i < g_capacity; ++i) {
      g_slots[i].depth.store(0, std::memory_order_relaxed);
    }
  }
  g_next.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_options = options;

  // backtrace()'s first call lazily dlopens libgcc (which mallocs);
  // doing it here keeps the signal handler allocation-free.
  void* warmup[4];
  backtrace(warmup, 4);

  if (!g_handler_installed) {
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &SigprofHandler;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) return false;
    // Deliberately left installed for the process lifetime (the
    // gperftools approach): restoring SIG_DFL with a SIGPROF pending
    // would kill the process. Disarmed, the handler is a no-op.
    g_handler_installed = true;
  }

  g_started_at = std::chrono::steady_clock::now();
  g_armed.store(true, std::memory_order_release);

  // tv_usec must stay below one second or setitimer rejects the value
  // with EINVAL — hz = 1 is exactly the 1'000'000 µs boundary.
  const long interval_us = 1'000'000 / options.hz;
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1'000'000;
  timer.it_interval.tv_usec = interval_us % 1'000'000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_armed.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

Profile Profiler::Stop() {
  std::lock_guard<std::mutex> lock(ControlMutex());
  Profile profile;
  if (!g_armed.load(std::memory_order_relaxed)) return profile;

  itimerval disarm{};
  setitimer(ITIMER_PROF, &disarm, nullptr);
  g_armed.store(false, std::memory_order_release);

  profile.options = g_options;
  profile.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_started_at)
          .count();

  std::size_t claimed = g_next.load(std::memory_order_relaxed);
  std::size_t used = claimed < g_capacity ? claimed : g_capacity;
  profile.samples.reserve(used);
  for (std::size_t i = 0; i < used; ++i) {
    int depth = g_slots[i].depth.load(std::memory_order_acquire);
    if (depth <= 0) continue;  // in-flight (0) or failed capture (-1)
    Sample sample;
    sample.stage_tag = g_slots[i].stage_tag;
    sample.frames.assign(g_slots[i].frames, g_slots[i].frames + depth);
    profile.samples.push_back(std::move(sample));
  }
  profile.dropped = g_dropped.load(std::memory_order_relaxed);
  return profile;
}

bool Profiler::IsRunning() const {
  return g_armed.load(std::memory_order_acquire);
}

bool Profiler::TickForTesting() {
  if (!g_armed.load(std::memory_order_acquire)) return false;
  return RecordSample();
}

std::string FoldedStacks(const Profile& profile) {
  std::map<void*, std::string> symbol_cache;
  std::map<std::string, std::int64_t> counts;

  for (const Sample& sample : profile.samples) {
    if (sample.frames.empty()) continue;

    // Symbolize innermost-first, then trim the sampling machinery:
    // everything at or inner to the signal trampoline, plus any
    // remaining profiler frames.
    std::vector<const std::string*> names;
    names.reserve(sample.frames.size());
    std::size_t start = 0;
    for (std::size_t i = 0; i < sample.frames.size(); ++i) {
      names.push_back(&SymbolFor(sample.frames[i], &symbol_cache));
      if (names.back()->find("__restore_rt") != std::string::npos) {
        start = i + 1;
      }
    }
    while (start < names.size() && IsMachineryFrame(*names[start])) ++start;
    if (start >= names.size()) continue;

    std::string line = "stage:";
    line += sample.stage_tag != nullptr ? sample.stage_tag : "untagged";
    for (std::size_t i = names.size(); i > start; --i) {
      line += ';';
      line += *names[i - 1];
    }
    ++counts[line];
  }

  std::string out;
  for (const auto& [stack, count] : counts) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::int64_t FoldedSampleCount(const std::string& folded) {
  std::int64_t total = 0;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    std::size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) return -1;  // must be newline-terminated
    std::size_t space = folded.rfind(' ', eol);
    if (space == std::string::npos || space <= pos) return -1;
    const std::string stack = folded.substr(pos, space - pos);
    if (stack.empty() || stack.compare(0, 6, "stage:") != 0) return -1;
    errno = 0;
    char* end = nullptr;
    const std::string count_str = folded.substr(space + 1, eol - space - 1);
    long long count = strtoll(count_str.c_str(), &end, 10);
    if (errno != 0 || end == count_str.c_str() || *end != '\0' || count <= 0) {
      return -1;
    }
    total += count;
    pos = eol + 1;
  }
  return total;
}

}  // namespace prof
}  // namespace obs
}  // namespace gupt
