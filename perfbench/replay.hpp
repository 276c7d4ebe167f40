// Open-loop replay of a workload trace through the public serving API.
//
// A request is submitted once the server's simulated clock has passed its
// due time (Request::arrival_us), and every latency is counted from that
// due time.  The replay observes the server only from outside: the
// sessions it exposes after each step, the gpusim streams, and — in a
// traced replay — host-clock spans recorded around each call it makes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Calls the replay times in a traced run.
enum class SpanKind { kSubmit, kExecuteStep, kFinalizeStep, kClusterStep };

[[nodiscard]] const char* span_name(SpanKind kind);

/// One host-clock span; `request` is the submitted request's id for
/// kSubmit and -1 for step spans.  Times are µs since the replay began.
struct HostSpan {
  SpanKind kind = SpanKind::kSubmit;
  std::int64_t request = -1;
  double start_us = 0;
  double end_us = 0;
};

/// One Engine or Cluster behind the calls the replay makes.
class Server {
 public:
  explicit Server(const stof::cluster::ClusterConfig& config);

  stof::serve::SessionId submit(const stof::serve::Request& r);
  /// One step; false when there was no admissible work.  With `spans`
  /// set, each library call is timed into it relative to `origin`.
  bool step(std::vector<HostSpan>* spans, Clock::time_point origin);
  void advance_to(double us);
  [[nodiscard]] double sim_time_us() const;
  [[nodiscard]] bool idle() const;

  [[nodiscard]] int devices() const;
  [[nodiscard]] const stof::serve::Engine& engine(int device) const;
  [[nodiscard]] const stof::serve::Session& session(
      stof::serve::SessionId id) const {
    return engine(0).session(id);
  }
  /// Per-session output digest: the engine's, or the cluster's assembled
  /// full-width digest.
  [[nodiscard]] std::uint64_t digest(stof::serve::SessionId id) const;

 private:
  std::unique_ptr<stof::serve::Engine> engine_;
  std::unique_ptr<stof::cluster::Cluster> cluster_;
};

/// What the replay saw of one request, on the simulated clock.
struct RequestRecord {
  double due_us = 0;
  double admit_us = -1;  ///< start of the first step that ingested it
  double first_us = -1;  ///< end of the step that emitted its first token
  double finish_us = -1;
  double max_gap_us = 0;  ///< largest gap between consecutive emissions
  std::int64_t emitted = 0;  ///< tokens generated so far
  double last_emit_us = 0;
  std::int64_t preemptions = 0;
  std::uint64_t digest = 0;
  bool finished = false;
};

struct ReplayResult {
  double wall_s = 0;  ///< wall time of the replay loop
  std::vector<RequestRecord> requests;  ///< indexed like the trace
  std::vector<double> itl_us;           ///< every gap between emissions
  double busy_us = 0;      ///< sum of step durations
  double makespan_us = 0;  ///< simulated clock at the end
  std::int64_t steps = 0;
  std::int64_t emitting_steps = 0;   ///< steps in which some session emitted
  std::int64_t emissions = 0;        ///< (session, step) emission pairs
  std::int64_t generated_tokens = 0;
  std::int64_t processed_tokens = 0;  ///< trace prompt + output tokens
  std::vector<HostSpan> spans;        ///< traced replays only
};

/// Destroy `server`, then construct a fresh one for `w`; returns the
/// construction's wall time in seconds (the benchmark's set-up time).
double construct(const Workload& w, std::unique_ptr<Server>& server);

/// Replay `w`'s trace through a freshly constructed `server`.  With
/// `traced`, host spans are recorded around every call.
[[nodiscard]] ReplayResult replay(const Workload& w, Server& server,
                                  bool traced);

/// Elapsed seconds between two steady-clock points.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace perfbench
