// Tensor-parallel multi-device serving runtime.
//
// A Cluster instantiates one serve::Engine per simulated device behind a
// shared admission front door.  Every request is submitted to every
// engine; engine i is configured as the head shard
// [head_range(i).begin, head_range(i).end) of the model, with its own KV
// pool (holding only its heads' pages), its own gpusim timeline, and its
// own panel-cache sidecars — so paged decode, chunked prefill, prefix
// sharing, and speculative decoding all shard without modification.
//
// Scheduling is lock-step: scheduler plans are pure functions of the
// session table and the pool's BLOCK accounting, and the head count only
// changes bytes-per-block, never block counts — so N engines fed the same
// submissions make identical decisions every step (checked when
// check_lockstep is set).  One cluster step:
//
//   1. execute_step() on every shard (kernels run, clocks do not move);
//   2. price the step's layer-boundary all-reduces with the α–β model and
//      charge them onto every shard's timeline;
//   3. finalize_step() everywhere with the common duration
//      max(shard kernel times) + collective time — so shard clocks, TTFT,
//      and deadline accounting agree across the cluster;
//   4. gather each shard's attention-output rows (the Engine's
//      on_output_row hook) and fold them in fixed shard order into
//      per-session CLUSTER digests, which are byte-comparable to a
//      single-device engine's digests on the same trace.
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
  /// Assert every step that all shards executed identical plans and
  /// produced aligned output-row streams (cheap; on by default).
  bool check_lockstep = true;

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
  struct OutputRow {
    serve::SessionId id = 0;
    std::int64_t pos = 0;
    std::vector<half> bytes;  ///< this shard's heads × head_size halfs
  };

  /// Pure content key of "the first `tokens` positions of this request's
  /// template" (page-key chain + mask kind): indexes the cluster-digest
  /// chain values that seed prefix-adopting sessions.
  [[nodiscard]] std::uint64_t prefix_chain_key(const serve::Request& r,
                                               std::int64_t tokens) const;

  /// Fold the step's gathered shard rows into the cluster digests.
  void drain_output_rows();

  ClusterConfig config_;
  std::vector<std::unique_ptr<serve::Engine>> engines_;
  /// Full-width numeric model head (engine.model enabled only): shards
  /// fold raw local rows, so the cluster applies the layer head to the
  /// assembled full-width row before folding — reproducing an unsharded
  /// engine's transformed digest bit for bit at every device count.
  std::unique_ptr<serve::ModelRuntime> model_head_;
  std::vector<std::vector<OutputRow>> pending_rows_;  ///< per device
  std::map<serve::SessionId, std::uint64_t> digests_;
  /// Digest chain value after folding the first `key`'s tokens of a shared
  /// template — pure functions of template content, so entries are never
  /// invalidated.
  std::map<std::uint64_t, std::uint64_t> prefix_chain_;
  double collective_us_ = 0;
};

}  // namespace stof::cluster
