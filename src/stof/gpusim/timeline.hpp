// Stream timeline: an ordered record of simulated kernel launches.
//
// Operators and fused templates push their KernelCost onto the Stream of
// the executor that ran them; the Stream converts each to simulated time
// against the active DeviceSpec and keeps per-kernel records so benches can
// report both end-to-end time and per-phase breakdowns (Fig. 14).
#pragma once

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::gpusim {

struct KernelRecord {
  std::string name;
  KernelCost cost;
  double time_us = 0;
};

/// Ordered sequence of simulated kernel launches on one device.
class Stream {
 public:
  explicit Stream(DeviceSpec device) : device_(std::move(device)) {}

  const DeviceSpec& device() const { return device_; }

  /// Record a kernel launch; returns its simulated time in microseconds.
  double launch(std::string name, const KernelCost& cost) {
    KernelRecord rec{std::move(name), cost, estimate_time_us(cost, device_)};
    if (telemetry::enabled()) record_telemetry(rec);
    total_us_ += rec.time_us;
    records_.push_back(std::move(rec));
    return records_.back().time_us;
  }

  /// Record a fixed-duration event whose time was computed by an external
  /// model (e.g. the cluster collective α–β model) instead of the kernel
  /// cost estimator.  `wire_bytes` is the event's data movement, kept in
  /// the record's gmem accounting so per-kernel telemetry and Chrome
  /// traces report collective traffic alongside kernel traffic.
  double launch_timed(std::string name, double time_us, double wire_bytes) {
    STOF_EXPECTS(time_us >= 0 && wire_bytes >= 0);
    KernelCost cost;
    cost.gmem_read_bytes = wire_bytes;
    KernelRecord rec{std::move(name), cost, time_us};
    if (telemetry::enabled()) record_telemetry(rec);
    total_us_ += rec.time_us;
    records_.push_back(std::move(rec));
    return records_.back().time_us;
  }

  [[nodiscard]] double total_us() const { return total_us_; }
  [[nodiscard]] std::size_t launch_count() const {
    std::size_t n = 0;
    for (const auto& r : records_) n += static_cast<std::size_t>(r.cost.launches);
    return n;
  }
  [[nodiscard]] const std::vector<KernelRecord>& records() const {
    return records_;
  }

  /// Total simulated time grouped by kernel name.
  [[nodiscard]] std::map<std::string, double> time_by_kernel_us() const {
    std::map<std::string, double> by;
    for (const auto& r : records_) by[r.name] += r.time_us;
    return by;
  }

  void clear() {
    records_.clear();
    total_us_ = 0;
  }

 private:
  /// Per-launch accounting under the sim.gpusim.* namespace.  Every metric
  /// is a sum or a histogram bucket count, so recording from concurrent
  /// tuner simulations stays deterministic; simulated cycles are a pure
  /// function of (cost, device) and identical across kernel ISAs.
  void record_telemetry(const KernelRecord& rec) const {
    const double gmem =
        rec.cost.gmem_read_bytes + rec.cost.gmem_write_bytes;
    const std::int64_t cycles =
        std::llround(rec.time_us * device_.clock_ghz * 1e3);
    telemetry::count("sim.gpusim.launches", rec.cost.launches);
    telemetry::count("sim.gpusim.cycles", cycles);
    telemetry::count("sim.gpusim.gmem_bytes", std::llround(gmem));
    const std::string prefix = "sim.gpusim.kernel." + rec.name;
    telemetry::count(prefix + ".launches", rec.cost.launches);
    telemetry::count(prefix + ".cycles", cycles);
    telemetry::count(prefix + ".gmem_bytes", std::llround(gmem));
    // Bank-conflict penalty: the extra SMEM bytes the conflict multiplier
    // costs this launch (0 when padding removed conflicts).
    telemetry::count(
        prefix + ".bank_conflict_excess_bytes",
        std::llround(rec.cost.smem_bytes *
                     (rec.cost.bank_conflict_factor - 1.0)));
    // Occupancy as a percent histogram: commutative across threads, unlike
    // a last-write-wins gauge.
    telemetry::observe(prefix + ".occupancy_pct", rec.cost.occupancy * 100.0);
    telemetry::observe("sim.gpusim.kernel_us", rec.time_us);
  }

  DeviceSpec device_;
  std::vector<KernelRecord> records_;
  double total_us_ = 0;
};

}  // namespace stof::gpusim
