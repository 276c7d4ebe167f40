// Tensor-parallel multi-device serving runtime.
//
// A Cluster instantiates one serve::Engine per simulated device behind a
// shared admission front door.  Every request is submitted to every
// engine; engine i is configured as the head shard
// [head_range(i).begin, head_range(i).end) of the model, with its own KV
// pool (holding only its heads' pages) and its own gpusim timeline — so
// paged decode, chunked prefill, prefix sharing, and speculative decoding
// all shard without modification.  Every engine is a shard, a one-device cluster included.  Shards of equal width
// share one cost-only model runtime, so each shape bucket tunes once per
// width; the cluster's full-width model head owns the weights.
//
// Scheduling is lock-step: scheduler plans are pure functions of the
// session table and the pool's BLOCK accounting, and the head count only
// changes bytes-per-block, never block counts — so N engines fed the same
// submissions make identical decisions every step (checked every step).
// One cluster step:
//
//   1. execute_step() on every shard (kernels run, clocks do not move);
//   2. price the step's layer-boundary all-reduces with the α–β model and
//      charge them onto every shard's timeline;
//   3. finalize_step() everywhere with the common duration
//      max(shard kernel times) + collective time — so shard clocks, TTFT,
//      and deadline accounting agree across the cluster;
//   4. assemble full-width rows from the shards' StepOutcome rows in
//      device order and fold them with a serve::DigestFolder (the one an
//      unsharded engine runs) into per-session CLUSTER digests, byte-
//      comparable to a single-device engine's.  Shards fold nothing.
//
// Collective traffic per step is modeled Megatron-style: 2 all-reduces
// per transformer layer over the step's activation rows
// (rows × model_heads × head_size halfs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "stof/cluster/collectives.hpp"
#include "stof/serve/engine.hpp"

namespace stof::cluster {

struct ClusterConfig {
  int devices = 1;
  /// Template engine config; `engine.heads` is the FULL model head count,
  /// which the cluster splits into contiguous per-device shards.
  serve::EngineConfig engine;
  LinkSpec link = nvlink_like();

  void validate() const;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] int devices() const { return config_.devices; }

  /// Submit a request to every shard's admission queue.
  serve::SessionId submit(const serve::Request& request);

  /// One lock-step cluster step; false when no shard has admissible work.
  bool step();

  void run_until_drained() {
    while (step()) {
    }
  }

  /// Open-loop clock advance on every shard (trace replay while idle).
  void advance_to(double us);

  [[nodiscard]] double sim_time_us() const { return engines_[0]->sim_time_us(); }
  [[nodiscard]] bool idle() const { return engines_[0]->idle(); }

  [[nodiscard]] const serve::Engine& engine(int device) const {
    return *engines_.at(static_cast<std::size_t>(device));
  }
  /// Mutable shard, for observers such as Engine::on_step (stepping a
  /// shard directly breaks lock-step).
  [[nodiscard]] serve::Engine& engine(int device) {
    return *engines_.at(static_cast<std::size_t>(device));
  }
  /// Shard 0's engine stats; lock-step execution keeps every shard's
  /// session/step counters identical, so one shard speaks for all.
  [[nodiscard]] const serve::EngineStats& stats() const {
    return engines_[0]->stats();
  }

  /// Per-session cluster digests: FNV-1a over full-width attention-output
  /// rows in position order (shard rows concatenated head-major), the
  /// same chain a single-device engine folds.
  [[nodiscard]] const std::map<serve::SessionId, std::uint64_t>& digests()
      const {
    return digests_;
  }

  /// Total simulated collective time charged per device so far.
  [[nodiscard]] double collective_us() const { return collective_us_; }

 private:
  /// Fold the step's shard rows, assembled to full width, into digests_.
  void fold_rows(
      const std::vector<std::optional<serve::StepOutcome>>& outcomes);

  ClusterConfig config_;
  std::vector<std::unique_ptr<serve::Engine>> engines_;
  /// Full-width numeric model head (engine.model enabled only), applied to
  /// the assembled rows as an unsharded engine applies its own.
  std::unique_ptr<serve::ModelRuntime> model_head_;
  serve::DigestFolder digest_folder_;
  std::map<serve::SessionId, std::uint64_t> digests_;
  std::map<serve::SessionId, std::int64_t> folded_;  ///< folded positions
  double collective_us_ = 0;
};

}  // namespace stof::cluster
