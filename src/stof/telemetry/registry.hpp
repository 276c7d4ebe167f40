// Process-wide metrics registry.
//
// Four metric kinds, all named by dotted strings (see docs/OBSERVABILITY.md
// for the naming scheme):
//
//   * counters   — monotonic int64 sums (simulated cycles, bytes, hits);
//   * gauges     — last-written double values (configuration echoes);
//   * histograms — fixed log2-bucket distributions (per-kernel times);
//   * timers     — accumulated wall-clock microseconds + call counts.
//
// Counters, histograms, and timer *counts* are deterministic given a fixed
// seed: they record *what the simulation did*, which is a pure function of
// its inputs, and every mutation is commutative and associative (integer
// sums, bucket counts, and fixed-point histogram sums), so concurrent
// recording from stof::parallel workers cannot change the final state.  Timer durations are host wall time and are the only
// nondeterministic content; dump_json() can exclude them so snapshots of
// identical runs compare byte-for-byte.
//
// A Registry is an ordinary object — subsystems that must account phases
// regardless of the global toggle (the tuner's Fig. 14 breakdown) own a
// local instance and merge it into the global one when telemetry is
// enabled.  The global instance lives in telemetry.hpp behind the
// near-zero-overhead `enabled()` gate.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace stof::telemetry {

/// Log2 histogram: bucket b counts values v with 2^(b-1) <= v < 2^b
/// (bucket 0 collects v < 1); values beyond 2^62 land in the last bucket.
inline constexpr int kHistogramBuckets = 64;

/// 64.64 fixed-point accumulator for exact, order-independent sums.
__extension__ typedef __int128 ExactSum;

struct HistogramCell {
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  /// Sum of the observed values: `exact_sum` rounded once to double.
  double sum = 0;
  /// The sum in 64.64 fixed point.  Integer addition is associative, so
  /// the sum does not depend on the order observations arrive in (the
  /// tuner records from parallel workers).  Every value in [2^-12, 2^62)
  /// adds exactly; larger magnitudes saturate, non-finite values add 0.
  ExactSum exact_sum = 0;
};

struct TimerCell {
  double total_us = 0;
  std::uint64_t count = 0;
};

/// Options for dump_json(): wall-clock timers are the only nondeterministic
/// registry content, so deterministic comparisons exclude them.
struct DumpOptions {
  bool include_timers = true;
};

/// Thread-safe metrics store with deterministic (name-sorted) iteration.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ---- Recording ----------------------------------------------------------
  void add(std::string_view name, std::int64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  void observe(std::string_view name, double value);
  void add_duration_us(std::string_view name, double us,
                       std::uint64_t calls = 1);

  // ---- Reading (0 / empty when the metric was never recorded) -------------
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] HistogramCell histogram(std::string_view name) const;
  [[nodiscard]] TimerCell timer(std::string_view name) const;

  /// Name-sorted copies of each section (snapshot semantics).
  [[nodiscard]] std::map<std::string, std::int64_t> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, HistogramCell> histograms() const;
  [[nodiscard]] std::map<std::string, TimerCell> timers() const;

  /// Total number of registered metric names across all kinds.
  [[nodiscard]] std::size_t entry_count() const;

  // ---- Lifecycle ----------------------------------------------------------
  void reset();

  /// Accumulate every metric of this registry into `dst` (counters and
  /// histograms add, timers add, gauges overwrite).
  void merge_into(Registry& dst) const;

  /// Deterministic JSON snapshot: sections sorted by metric name, fixed
  /// number formatting.  Identical registry content produces identical
  /// bytes.
  [[nodiscard]] std::string dump_json(const DumpOptions& opts = {}) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramCell, std::less<>> histograms_;
  std::map<std::string, TimerCell, std::less<>> timers_;
};

/// Bucket index of `value` in the log2 scheme above (exposed for tests).
[[nodiscard]] int log2_bucket(double value);

}  // namespace stof::telemetry
