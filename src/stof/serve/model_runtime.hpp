// Per-model execution runtime for the serving engine.
//
// A ModelSpec turns the engine from an attention demo into an end-to-end
// layer server: every step's activation rows (varlen prefill tokens +
// batched decode rows) run through a full transformer-layer stack — QKV
// projection, attention, out-projection, LayerNorm, FFN GEMM + activation —
// built by graph::builders for the configured model family.  The runtime
// covers the two dimensions the digest/timeline split requires:
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
//    to attention-output rows before they fold into session digests.  Per
//    layer it runs the post-attention pipeline (out-proj GEMM, bias,
//    residual, LayerNorm, FFN up/down GEMMs, activation) with seeded
//    weights on the library's bit-identical packed kernels; layer l > 0
//    reuses layer l-1's output as its attention output.  Every op is
//    per-row pure (the packed GEMM's accumulation order is row
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
  /// FFN width as a multiple of the hidden width (4 in BERT/GPT-2).
  std::int64_t ffn_mult = 4;
  /// true: tuned fused-segment execution; false: launch-per-op eager
  /// execution (the baseline timeline — digests are identical either way).
  bool fused = true;
  /// Persistent tuning-DB directory; empty tunes in memory only.
  std::string tune_db_dir;
  /// Seed of the layer head's weight streams.
  std::uint64_t weight_seed = 0x57eadfa571ull;

  [[nodiscard]] bool enabled() const { return kind != ModelKind::kNone; }
  /// Row-parallel projections per layer — the all-reduce count a
  /// tensor-parallel cluster pays at layer boundaries (self out-proj +
  /// FFN down-proj, plus the cross-attention out-proj for T5).
  [[nodiscard]] std::int64_t collectives_per_layer() const {
    return kind == ModelKind::kT5CrossDecoder ? 3 : 2;
  }
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
  [[nodiscard]] graph::Graph build_graph(std::int64_t rows) const;

  struct LayerWeights {
    // GEMM weights: exact FP32 widenings of seeded half draws.
    TensorF wo, wc, wf1, wf2;  // out-projection, cross (T5 only), FFN up/down
    TensorH bo, bf1, bf2;      // their biases
    TensorH g1, b1, g2, b2, g3, b3;  // LayerNorm affine params
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
  std::vector<LayerWeights> weights_;
};

}  // namespace stof::serve
