// Telemetry front door: global registry, enable toggle, scoped timers.
//
// Instrumented call sites across gpusim/ops/mha/tuner/models go through the
// free functions here, which are gated on a process-wide flag read with one
// relaxed atomic load — with telemetry disabled (the default) every call
// site is a compare-and-branch and *no registry entries are ever created*.
// Tests and benches opt in with the RAII ScopedTelemetry guard.
//
// Counter naming scheme (full catalogue in docs/OBSERVABILITY.md):
//   sim.*   deterministic simulated quantities (cycles, bytes, block and
//           cache-hit counts) — identical across kernel ISAs and
//           across repeated seeded runs;
//   exec.*  host execution accounting (dispatch calls, panel
//           conversions) — deterministic per run;
//   wall.*  host wall-clock timers — the only nondeterministic metrics.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

#include "stof/telemetry/registry.hpp"

namespace stof::telemetry {

/// True when instrumented call sites should record into the global
/// registry.  Default: disabled (zero-overhead inference).
[[nodiscard]] bool enabled();

/// Flip the global toggle (tests / benches only).
void set_enabled(bool on);

/// RAII guard restoring the previous toggle state on scope exit.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on);
  ~ScopedTelemetry();
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  bool previous_;
};

/// The process-wide registry all gated call sites record into.
[[nodiscard]] Registry& global_registry();

// ---- Gated recording helpers (no-ops while disabled) -----------------------

inline void count(std::string_view name, std::int64_t delta = 1) {
  if (enabled()) global_registry().add(name, delta);
}

inline void gauge(std::string_view name, double value) {
  if (enabled()) global_registry().set_gauge(name, value);
}

inline void observe(std::string_view name, double value) {
  if (enabled()) global_registry().observe(name, value);
}

inline void duration_us(std::string_view name, double us) {
  if (enabled()) global_registry().add_duration_us(name, us);
}

/// RAII wall-clock timer.  The gated form binds to the global registry only
/// when telemetry is enabled at construction; the explicit-registry form
/// always records (the tuner's phase breakdown uses it so Fig. 14 numbers
/// exist regardless of the global toggle).  The clock is read before the
/// registry is touched, so the recording cost never pollutes the measured
/// interval.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : ScopedTimer(enabled() ? &global_registry() : nullptr, name) {}
  ScopedTimer(Registry* registry, std::string_view name)
      : registry_(registry),
        name_(name),
        start_(registry == nullptr ? Clock::time_point{} : Clock::now()) {}
  ~ScopedTimer() {
    if (registry_ == nullptr) return;
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start_)
            .count();
    registry_->add_duration_us(name_, us);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  Registry* registry_;
  std::string name_;
  Clock::time_point start_;
};

/// JSON snapshot of the global registry (see Registry::dump_json).
[[nodiscard]] std::string dump_json(const DumpOptions& opts = {});

}  // namespace stof::telemetry
