// The benchmark's seeded serving workloads.
//
// Each workload is an engine (or tensor-parallel cluster) configuration, an
// open-loop arrival trace on the simulated clock, and the fixed SLO limits
// its sim_slo_pct metric is judged against.  The trace is a pure function
// of the seed; the server sees only the generated requests.  README.md in
// this directory records why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stof/cluster/cluster.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// devices == 1 runs one serve::Engine on `config.engine`; more devices
  /// run a cluster::Cluster.
  stof::cluster::ClusterConfig config;
  std::vector<stof::serve::Request> trace;  ///< sorted by arrival_us
  double ttft_limit_us = 0;  ///< SLO: due time to first token
  double itl_limit_us = 0;   ///< SLO: every gap between emissions
};

/// Names accepted by make_workload, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` from `seed`; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The config of the fresh single engine that replays sampled requests
/// alone to check outputs: full model width, serial FIFO scheduling, whole
/// prefill, no prefix sharing, no speculation.
[[nodiscard]] stof::serve::EngineConfig reference_config(const Workload& w);

}  // namespace perfbench
