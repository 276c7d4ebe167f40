// Per-model execution runtime for the serving engine.
//
// A ModelSpec turns the engine from an attention demo into an end-to-end
// layer server: every step's activation rows (varlen prefill tokens +
// batched decode rows) run through a full transformer-layer stack — QKV
// projection, attention, out-projection, LayerNorm, FFN GEMM + activation —
// built by graph::builders for the configured model family.  That graph is
// the only description of the family; the runtime reads it two ways:
//
//  * Timeline (charge_step): the step's non-MHA layer work is charged onto
//    the gpusim stream.  Fused mode executes the tuned ExecutionPlan's
//    segments through the compilation templates (one launch per fused
//    segment, fusion::segment_cost); unfused mode launches every operator
//    detached with the device's eager dispatch overhead
//    (fusion::single_op_cost) — the launch-per-op baseline the
//    serve_e2e_layer bench gates against.  MHA segments are skipped in
//    both modes: the engine's real serve.prefill / serve.decode attention
//    launches already charged them, identically, so the fused-vs-unfused
//    delta isolates the fusion dimension.
//  * Digest (transform_rows): a deterministic per-row layer head applied
//    to attention-output rows before they fold into session digests.  It
//    walks one layer of the graph node by node, one host op per node kind
//    (GEMM, bias, GELU/ReLU, residual add reading the node's skip operand,
//    LayerNorm) with seeded weights on the library's bit-identical packed
//    kernels, and repeats it for every layer with that layer's weights.
//    The attention block (QKV projection through P·V) passes its input
//    through: the engine's attention kernels already produced these rows.
//    Every op is per-row pure (the packed GEMM's accumulation order is row
//    independent), so digests stay byte-identical across batch
//    compositions, scheduling modes, preemption/recompute, chunked
//    prefill, and fused-vs-unfused timelines.
//
// Tuning happens once at "model load": plan_for() resolves each shape
// bucket (next power of two of the row count — decode and prefill shapes
// land in different buckets) through the persistent TuneDb and falls back
// to the two-stage search on a miss, persisting the result.  Telemetry:
// serve.model.* counters, tunedb.* counters, and the wall.tunedb.{tune,
// load}_us timers the warm-vs-cold bench gate reads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/gpusim/timeline.hpp"
#include "stof/graph/builders.hpp"
#include "stof/models/executor.hpp"
#include "stof/models/tune_db.hpp"

namespace stof::serve {

/// Model families the serving engine can execute end to end.
enum class ModelKind {
  kNone,           ///< legacy attention-only serving
  kBertEncoder,    ///< post-LN encoder layers, GELU FFN
  kGptDecoder,     ///< pre-LN decoder layers, GELU FFN
  kT5CrossDecoder  ///< pre-LN self+cross+FFN blocks, bias-free, ReLU FFN
};

[[nodiscard]] std::string to_string(ModelKind kind);

/// What the engine serves: a stack of `layers` transformer layers over the
/// engine's (model_heads x head_size) hidden width.
struct ModelSpec {
  ModelKind kind = ModelKind::kNone;
  std::int64_t layers = 2;
  /// true: tuned fused-segment execution; false: launch-per-op eager
  /// execution (the baseline timeline — digests are identical either way).
  bool fused = true;
  /// Persistent tuning-DB directory; empty tunes in memory only.
  std::string tune_db_dir;

  [[nodiscard]] bool enabled() const { return kind != ModelKind::kNone; }
  void validate() const;
  friend bool operator==(const ModelSpec&, const ModelSpec&) = default;
};

class ModelRuntime {
 public:
  /// `heads`/`head_size` are the LOCAL widths (a tensor-parallel shard
  /// builds its runtime at shard width and charges the shard's slice of
  /// every GEMM).  `with_weights` materializes the numeric layer head;
  /// cost-only runtimes (sharded engines) skip it.
  ModelRuntime(const ModelSpec& spec, std::int64_t heads,
               std::int64_t head_size, const gpusim::DeviceSpec& device,
               bool with_weights);

  [[nodiscard]] const ModelSpec& spec() const { return spec_; }
  [[nodiscard]] std::int64_t hidden() const { return hidden_; }
  [[nodiscard]] bool has_weights() const { return !weights_.empty(); }
  /// Row-parallel GEMMs per layer (the out-projections and the FFN
  /// down-projection): the all-reduces a tensor-parallel cluster pays at
  /// each layer's boundaries.
  [[nodiscard]] std::int64_t collectives_per_layer() const;
  /// True when this runtime tunes exactly the plans an engine serving
  /// `spec` at (heads, head_size) on `device` needs: every TuneKey it
  /// would build (graph, bucket, device) is the same.
  [[nodiscard]] bool matches(const ModelSpec& spec, std::int64_t heads,
                             std::int64_t head_size,
                             const gpusim::DeviceSpec& device) const;

  /// Tune (or warm-load) the shape bucket covering `rows` now, at "model
  /// load", instead of on first use.  No-op in unfused mode.
  void prewarm(std::int64_t rows);

  /// The tuned plan for `rows`' shape bucket: cached, else TuneDb, else
  /// the two-stage search (persisted on the way out).
  const models::ExecutionPlan& plan_for(std::int64_t rows);

  /// Charge one step's non-MHA layer work for `rows` activation rows onto
  /// `stream`; returns the simulated time added.
  double charge_step(gpusim::Stream& stream, std::int64_t rows);

  /// Apply the deterministic layer head to a batch of attention-output
  /// rows ((n, hidden), in place).  Requires with_weights.
  void transform_rows(TensorH& rows) const;

 private:
  [[nodiscard]] graph::Graph build_graph(std::int64_t rows,
                                         std::int64_t layers) const;

  /// One non-attention node of the layer graph as the head runs it: its
  /// op kind and node id, the head buffers it reads (`skip`: a residual
  /// add's skip operand) and writes, and its first weight stream tag
  /// (-1: none).
  struct HeadOp {
    graph::OpKind kind = graph::OpKind::kInput;
    std::size_t node = 0;
    int in = 0, skip = -1, out = 0;
    int tag = -1;
  };
  /// One head op's weights in one layer: a GEMM's `w` (the exact FP32
  /// widening of a seeded half draw), a bias or LayerNorm gamma `a`,
  /// LayerNorm's beta `b`.
  struct OpWeights {
    TensorF w;
    TensorH a, b;
  };

  ModelSpec spec_;
  std::int64_t heads_ = 0;
  std::int64_t head_size_ = 0;
  std::int64_t hidden_ = 0;
  std::int64_t ffn_ = 0;
  gpusim::DeviceSpec device_;
  std::uint64_t device_fp_ = 0;
  std::optional<models::TuneDb> db_;
  std::map<std::int64_t, models::ExecutionPlan> plans_;  ///< bucket -> plan
  std::vector<HeadOp> head_;  ///< one layer's ops, in graph order
  /// Width of each head buffer; buffer 0 is the rows transform_rows is
  /// given, the others are allocated per call.
  std::vector<std::int64_t> buffer_cols_;
  std::vector<OpWeights> weights_;  ///< [layer * head_.size() + op]
};

}  // namespace stof::serve
