#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/json.h"

namespace gupt {
namespace obs {
namespace {

/// Relaxed CAS-loop add; std::atomic<double>::fetch_add is C++20 but not
/// universally lowered, so spell it out.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

/// Canonical key for a label set: sorted by key, fields joined with \x1f.
std::string CanonicalLabelKey(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

Labels SortedLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string EscapePromValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest round-trippable decimal; Prometheus accepts Go-style floats.
std::string FormatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (std::strtod(out.str().c_str(), nullptr) == value) return out.str();
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string PromLabelBlock(const Labels& labels, const std::string& extra_key,
                           const std::string& extra_value) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + EscapePromValue(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + EscapePromValue(extra_value) + "\"";
  }
  out += '}';
  return out;
}

bool IsUnitWord(const std::string& word) {
  static const char* kUnits[] = {"seconds", "bytes",   "total", "count",
                                 "ratio",   "epsilon", "scale", "depth"};
  for (const char* unit : kUnits) {
    if (word == unit) return true;
  }
  return false;
}

}  // namespace

void Counter::Increment(double delta) {
  if (delta < 0) return;  // counters are monotone; ignore misuse
  AtomicAdd(&value_, delta);
}

void Gauge::Add(double delta) { AtomicAdd(&value_, delta); }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  std::size_t index =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
}

double Histogram::Mean() const {
  std::uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  std::vector<std::uint64_t> counts = BucketCounts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    double next = cumulative + static_cast<double>(counts[i]);
    if (next >= rank || i + 1 == counts.size()) {
      if (i == bounds_.size()) {
        // +Inf bucket: the best point estimate is the largest finite edge.
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double hi = bounds_[i];
      const double lo = i == 0 ? std::min(0.0, hi) : bounds_[i - 1];
      if (counts[i] == 0) return hi;
      const double within = (rank - cumulative) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::DurationBuckets() {
  // 1us .. 100s, three steps per decade. Each edge is parsed from its
  // decimal literal so exports print "2.5e-06", not the drifted product
  // "2.4999999999999998e-06" that decade*step accumulates. Parsed once.
  static const std::vector<double> kBounds = [] {
    std::vector<double> bounds;
    for (int exp = -6; exp <= 1; ++exp) {
      for (const char* step : {"1", "2.5", "5"}) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%se%d", step, exp);
        bounds.push_back(std::strtod(buf, nullptr));
      }
    }
    bounds.push_back(100.0);
    return bounds;
  }();
  return kBounds;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

bool MetricsRegistry::IsValidMetricName(const std::string& name) {
  // Lower-case words joined by single underscores.
  if (name.empty() || name.front() == '_' || name.back() == '_') return false;
  std::vector<std::string> words;
  std::string word;
  for (char c : name) {
    if (c == '_') {
      if (word.empty()) return false;  // doubled underscore
      words.push_back(word);
      word.clear();
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      word += c;
    } else {
      return false;
    }
  }
  if (!word.empty()) words.push_back(word);
  // gupt_<subsystem>_<name>_<unit>: at least four words, unit last.
  if (words.size() < 4) return false;
  if (words.front() != "gupt") return false;
  return IsUnitWord(words.back());
}

MetricsRegistry::Instrument* MetricsRegistry::FindOrCreate(
    const std::string& name, const std::string& help, Kind kind,
    const Labels& labels, std::vector<double> bounds) {
  // Caller holds mu_.
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
    family.bounds = bounds;
    if (!IsValidMetricName(name)) invalid_names_.push_back(name);
  }
  if (family.kind != kind) {
    // Type conflict: the caller hands back a detached instrument so user
    // code keeps a usable handle; it is simply never exported.
    return nullptr;
  }
  const std::string key = CanonicalLabelKey(labels);
  auto [series_it, series_inserted] = family.series.try_emplace(key);
  if (series_inserted) {
    family.series_labels[key] = SortedLabels(labels);
    switch (kind) {
      case Kind::kCounter:
        series_it->second.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        series_it->second.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram: {
        std::vector<double> use =
            family.bounds.empty() ? std::move(bounds) : family.bounds;
        series_it->second.histogram =
            std::unique_ptr<Histogram>(new Histogram(std::move(use)));
        break;
      }
    }
  }
  return &series_it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument* instrument = FindOrCreate(name, help, Kind::kCounter, labels, {});
  if (instrument == nullptr) {
    orphan_counters_.push_back(std::make_unique<Counter>());
    return orphan_counters_.back().get();
  }
  return instrument->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument* instrument = FindOrCreate(name, help, Kind::kGauge, labels, {});
  if (instrument == nullptr) {
    orphan_gauges_.push_back(std::make_unique<Gauge>());
    return orphan_gauges_.back().get();
  }
  return instrument->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         const Labels& labels) {
  if (bounds.empty()) bounds = Histogram::DurationBuckets();
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::lock_guard<std::mutex> lock(mu_);
  Instrument* instrument =
      FindOrCreate(name, help, Kind::kHistogram, labels, bounds);
  if (instrument == nullptr) {
    orphan_histograms_.push_back(
        std::unique_ptr<Histogram>(new Histogram(std::move(bounds))));
    return orphan_histograms_.back().get();
  }
  return instrument->histogram.get();
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    auto append_sample = [&out](const std::string& sample_name,
                                const std::string& label_block,
                                const std::string& value) {
      out += sample_name;
      out += label_block;
      out += ' ';
      out += value;
      out += '\n';
    };
    out += "# HELP ";
    out += name;
    out += ' ';
    out += EscapePromValue(family.help);
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    for (const auto& [key, instrument] : family.series) {
      const Labels& labels = family.series_labels.at(key);
      switch (family.kind) {
        case Kind::kCounter:
          append_sample(name, PromLabelBlock(labels, "", ""),
                        FormatNumber(instrument.counter->Value()));
          break;
        case Kind::kGauge:
          append_sample(name, PromLabelBlock(labels, "", ""),
                        FormatNumber(instrument.gauge->Value()));
          break;
        case Kind::kHistogram: {
          const Histogram& h = *instrument.histogram;
          std::vector<std::uint64_t> counts = h.BucketCounts();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bucket_bounds().size(); ++i) {
            cumulative += counts[i];
            append_sample(
                name + "_bucket",
                PromLabelBlock(labels, "le", FormatNumber(h.bucket_bounds()[i])),
                std::to_string(cumulative));
          }
          cumulative += counts.back();
          append_sample(name + "_bucket", PromLabelBlock(labels, "le", "+Inf"),
                        std::to_string(cumulative));
          append_sample(name + "_sum", PromLabelBlock(labels, "", ""),
                        FormatNumber(h.Sum()));
          append_sample(name + "_count", PromLabelBlock(labels, "", ""),
                        std::to_string(h.Count()));
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":[";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out += ',';
    first_family = false;
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out += "{\"name\":\"";
    out += JsonEscape(name);
    out += "\",\"type\":\"";
    out += type;
    out += "\",\"help\":\"";
    out += JsonEscape(family.help);
    out += "\",\"series\":[";
    bool first_series = true;
    for (const auto& [key, instrument] : family.series) {
      if (!first_series) out += ',';
      first_series = false;
      out += "{\"labels\":{";
      const Labels& labels = family.series_labels.at(key);
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += JsonEscape(labels[i].first);
        out += "\":\"";
        out += JsonEscape(labels[i].second);
        out += '"';
      }
      out += "},";
      switch (family.kind) {
        case Kind::kCounter:
          out += "\"value\":";
          out += JsonNumber(instrument.counter->Value());
          break;
        case Kind::kGauge:
          out += "\"value\":";
          out += JsonNumber(instrument.gauge->Value());
          break;
        case Kind::kHistogram: {
          const Histogram& h = *instrument.histogram;
          out += "\"count\":";
          out += std::to_string(h.Count());
          out += ",\"sum\":";
          out += JsonNumber(h.Sum());
          out += ",\"p50\":";
          out += JsonNumber(h.Quantile(0.50));
          out += ",\"p95\":";
          out += JsonNumber(h.Quantile(0.95));
          out += ",\"p99\":";
          out += JsonNumber(h.Quantile(0.99));
          out += ",\"buckets\":[";
          std::vector<std::uint64_t> counts = h.BucketCounts();
          for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i > 0) out += ',';
            const bool is_inf = i == h.bucket_bounds().size();
            out += "{\"le\":";
            out += is_inf ? "null" : JsonNumber(h.bucket_bounds()[i]);
            out += ",\"count\":";
            out += std::to_string(counts[i]);
            out += "}";
          }
          out += "]";
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::vector<MetricSample> MetricsRegistry::CollectSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  for (const auto& [name, family] : families_) {
    for (const auto& [key, instrument] : family.series) {
      MetricSample sample;
      sample.name = name;
      sample.labels = family.series_labels.at(key);
      switch (family.kind) {
        case Kind::kCounter:
          sample.kind = MetricSample::Kind::kCounter;
          sample.value = instrument.counter->Value();
          break;
        case Kind::kGauge:
          sample.kind = MetricSample::Kind::kGauge;
          sample.value = instrument.gauge->Value();
          break;
        case Kind::kHistogram: {
          const Histogram& h = *instrument.histogram;
          sample.kind = MetricSample::Kind::kHistogram;
          sample.count = h.Count();
          sample.sum = h.Sum();
          sample.p50 = h.Quantile(0.50);
          sample.p95 = h.Quantile(0.95);
          sample.p99 = h.Quantile(0.99);
          break;
        }
      }
      out.push_back(std::move(sample));
    }
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [key, instrument] : family.series) {
      if (instrument.counter) instrument.counter->Reset();
      if (instrument.gauge) instrument.gauge->Reset();
      if (instrument.histogram) instrument.histogram->Reset();
    }
  }
}

std::vector<std::string> MetricsRegistry::invalid_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalid_names_;
}

}  // namespace obs
}  // namespace gupt
