#include "stof/telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace stof::telemetry {

namespace {

/// Shortest round-trip formatting, locale-independent: identical doubles
/// always print identical bytes.
void write_double(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp.imbue(std::locale::classic());
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

constexpr int kSumFractionBits = 64;
constexpr ExactSum kExactSumMax = ~(ExactSum{1} << 127);

/// Add `delta` to a histogram's exact sum, saturating instead of wrapping,
/// and refresh the rounded double.
void add_exact(HistogramCell& cell, ExactSum delta) {
  ExactSum next = 0;
  if (__builtin_add_overflow(cell.exact_sum, delta, &next)) {
    next = delta > 0 ? kExactSumMax : -kExactSumMax;
  }
  cell.exact_sum = next;
  cell.sum = std::ldexp(static_cast<double>(next), -kSumFractionBits);
}

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
  os << '"';
}

}  // namespace

int log2_bucket(double value) {
  if (!(value >= 1.0)) return 0;  // NaN and sub-1 values collapse to 0
  int b = 0;
  while (value >= 1.0 && b < kHistogramBuckets - 1) {
    value *= 0.5;
    ++b;
  }
  return b;
}

void Registry::add(std::string_view name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::set_gauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Registry::observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), HistogramCell{}).first;
  }
  HistogramCell& cell = it->second;
  ++cell.buckets[log2_bucket(value)];
  ++cell.count;
  if (std::isfinite(value)) {
    const double clamped = std::clamp(value, -0x1p62, 0x1p62);
    add_exact(cell, static_cast<ExactSum>(
                        std::ldexp(clamped, kSumFractionBits)));
  }
}

void Registry::add_duration_us(std::string_view name, double us,
                               std::uint64_t calls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), TimerCell{}).first;
  }
  it->second.total_us += us;
  it->second.count += calls;
}

std::int64_t Registry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Registry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramCell Registry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramCell{} : it->second;
}

TimerCell Registry::timer(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? TimerCell{} : it->second;
}

std::map<std::string, std::int64_t> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {counters_.begin(), counters_.end()};
}

std::map<std::string, double> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, HistogramCell> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {histograms_.begin(), histograms_.end()};
}

std::map<std::string, TimerCell> Registry::timers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {timers_.begin(), timers_.end()};
}

std::size_t Registry::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size() +
         timers_.size();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  timers_.clear();
}

void Registry::merge_into(Registry& dst) const {
  // Copy under our lock, apply under dst's lock — never hold both (the
  // global registry may be `dst` while a worker thread records into it).
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramCell, std::less<>> histograms;
  std::map<std::string, TimerCell, std::less<>> timers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
    timers = timers_;
  }
  for (const auto& [name, v] : counters) dst.add(name, v);
  for (const auto& [name, v] : gauges) dst.set_gauge(name, v);
  for (const auto& [name, cell] : histograms) {
    std::lock_guard<std::mutex> lock(dst.mu_);
    auto it = dst.histograms_.find(name);
    if (it == dst.histograms_.end()) {
      it = dst.histograms_.emplace(name, HistogramCell{}).first;
    }
    for (int b = 0; b < kHistogramBuckets; ++b) {
      it->second.buckets[b] += cell.buckets[b];
    }
    it->second.count += cell.count;
    add_exact(it->second, cell.exact_sum);
  }
  for (const auto& [name, cell] : timers) {
    dst.add_duration_us(name, cell.total_us, cell.count);
  }
}

std::string Registry::dump_json(const DumpOptions& opts) const {
  // Copy out under the lock, format outside it.
  const auto counters = this->counters();
  const auto gauges = this->gauges();
  const auto histograms = this->histograms();
  const auto timers = this->timers();

  std::ostringstream os;
  os << "{\n  \"schema\": \"stof-telemetry-v1\",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n    " : ",\n    ");
    write_escaped(os, name);
    os << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    write_escaped(os, name);
    os << ": ";
    write_double(os, v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, cell] : histograms) {
    os << (first ? "\n    " : ",\n    ");
    write_escaped(os, name);
    os << ": {\"count\": " << cell.count << ", \"sum\": ";
    write_double(os, cell.sum);
    os << ", \"buckets\": {";
    bool first_bucket = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (cell.buckets[b] == 0) continue;
      if (!first_bucket) os << ", ";
      os << '"' << b << "\": " << cell.buckets[b];
      first_bucket = false;
    }
    os << "}}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}";

  if (opts.include_timers) {
    os << ",\n  \"timers\": {";
    first = true;
    for (const auto& [name, cell] : timers) {
      os << (first ? "\n    " : ",\n    ");
      write_escaped(os, name);
      os << ": {\"count\": " << cell.count << ", \"total_us\": ";
      write_double(os, cell.total_us);
      os << "}";
      first = false;
    }
    os << (first ? "" : "\n  ") << "}";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace stof::telemetry
