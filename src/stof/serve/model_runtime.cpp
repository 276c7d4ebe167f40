#include "stof/serve/model_runtime.hpp"

#include <cmath>
#include <utility>

#include "stof/core/checksum.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/fusion/templates.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/ops/elementwise.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/ops/normalize.hpp"
#include "stof/telemetry/telemetry.hpp"
#include "stof/tuner/search_engine.hpp"

namespace stof::serve {

namespace {

/// Weight stream tags — part of the (seed, layer, tag) hash, so every
/// parameter tensor draws from an independent deterministic stream.
enum class WeightTag : int {
  kOutProj,
  kOutBias,
  kCrossProj,
  kFfnUp,
  kFfnUpBias,
  kFfnDown,
  kFfnDownBias,
  kGamma1,
  kBeta1,
  kGamma2,
  kBeta2,
  kGamma3,
  kBeta3,
};

std::uint64_t weight_stream(std::uint64_t seed, std::int64_t layer,
                            WeightTag tag) {
  std::uint64_t h = fnv1a64(&layer, sizeof(layer), seed ^ kFnv1aOffset);
  const int t = static_cast<int>(tag);
  return fnv1a64(&t, sizeof(t), h);
}

/// Seeded uniform(-scale, scale) fill (plus `center`, for LayerNorm
/// gammas).  Element order is fixed, so the bits never depend on batch or
/// scheduling — the same determinism contract as serve::fill_token.
TensorH seeded_tensor(Shape shape, std::uint64_t seed, float scale,
                      float center = 0.0f) {
  TensorH t(shape);
  Rng rng(seed);
  for (half& v : t.data()) v = half(center + rng.uniform(-scale, scale));
  return t;
}

/// A GEMM weight as the GEMM reads it: the exact FP32 widening of a
/// seeded half draw.
TensorF seeded_weight(Shape shape, std::uint64_t seed, float scale) {
  const TensorH drawn = seeded_tensor(shape, seed, scale);
  TensorF w(shape);
  packed::half_to_float(drawn.data(), w.data());
  return w;
}

/// The search budget paid per cold shape bucket.  Trimmed from the
/// offline-tuning defaults: model load tunes a handful of buckets, and the
/// two-stage search converges on these layer graphs well inside this
/// budget (the plan is still deterministic — fixed seed, cached evals).
tuner::TuningOptions load_time_options() {
  tuner::TuningOptions o;
  o.samples_per_candidate = 2;
  o.stage1_max_evals = 32;
  o.stage2_iterations = 2;
  o.stage2_budget = 8;
  return o;
}

}  // namespace

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kNone:
      return "none";
    case ModelKind::kBertEncoder:
      return "bert_encoder";
    case ModelKind::kGptDecoder:
      return "gpt_decoder";
    case ModelKind::kT5CrossDecoder:
      return "t5_cross_decoder";
  }
  return "?";
}

void ModelSpec::validate() const {
  if (!enabled()) return;
  STOF_EXPECTS(layers >= 1, "a model needs at least one layer");
  STOF_EXPECTS(ffn_mult >= 1, "FFN must be at least hidden-wide");
}

ModelRuntime::ModelRuntime(const ModelSpec& spec, std::int64_t heads,
                           std::int64_t head_size,
                           const gpusim::DeviceSpec& device,
                           bool with_weights)
    : spec_(spec),
      heads_(heads),
      head_size_(head_size),
      hidden_(heads * head_size),
      ffn_(spec.ffn_mult * heads * head_size),
      device_(device),
      device_fp_(models::device_fingerprint(device)) {
  spec_.validate();
  STOF_EXPECTS(spec_.enabled(), "ModelRuntime needs an enabled ModelSpec");
  STOF_EXPECTS(heads_ > 0 && head_size_ > 0);
  if (!spec_.tune_db_dir.empty()) db_.emplace(spec_.tune_db_dir);
  if (!with_weights) return;

  // Fan-in scaled weights keep activations O(1) through arbitrarily many
  // layers (LayerNorm re-centers between them).
  const bool bias = spec_.kind != ModelKind::kT5CrossDecoder;
  const float s_h = 1.0f / std::sqrt(static_cast<float>(hidden_));
  const float s_f = 1.0f / std::sqrt(static_cast<float>(ffn_));
  const std::uint64_t seed = spec_.weight_seed;
  weights_.reserve(static_cast<std::size_t>(spec_.layers));
  for (std::int64_t l = 0; l < spec_.layers; ++l) {
    LayerWeights w;
    w.wo = seeded_weight(Shape{hidden_, hidden_},
                         weight_stream(seed, l, WeightTag::kOutProj), s_h);
    w.wf1 = seeded_weight(Shape{hidden_, ffn_},
                          weight_stream(seed, l, WeightTag::kFfnUp), s_h);
    w.wf2 = seeded_weight(Shape{ffn_, hidden_},
                          weight_stream(seed, l, WeightTag::kFfnDown), s_f);
    if (bias) {
      w.bo = seeded_tensor(Shape{hidden_},
                           weight_stream(seed, l, WeightTag::kOutBias), 0.1f);
      w.bf1 = seeded_tensor(Shape{ffn_},
                            weight_stream(seed, l, WeightTag::kFfnUpBias),
                            0.1f);
      w.bf2 = seeded_tensor(Shape{hidden_},
                            weight_stream(seed, l, WeightTag::kFfnDownBias),
                            0.1f);
    }
    if (spec_.kind == ModelKind::kT5CrossDecoder) {
      w.wc = seeded_weight(Shape{hidden_, hidden_},
                           weight_stream(seed, l, WeightTag::kCrossProj),
                           s_h);
    }
    w.g1 = seeded_tensor(Shape{hidden_},
                         weight_stream(seed, l, WeightTag::kGamma1), 0.1f,
                         1.0f);
    w.b1 = seeded_tensor(Shape{hidden_},
                         weight_stream(seed, l, WeightTag::kBeta1), 0.05f);
    w.g2 = seeded_tensor(Shape{hidden_},
                         weight_stream(seed, l, WeightTag::kGamma2), 0.1f,
                         1.0f);
    w.b2 = seeded_tensor(Shape{hidden_},
                         weight_stream(seed, l, WeightTag::kBeta2), 0.05f);
    if (spec_.kind == ModelKind::kT5CrossDecoder) {
      w.g3 = seeded_tensor(Shape{hidden_},
                           weight_stream(seed, l, WeightTag::kGamma3), 0.1f,
                           1.0f);
      w.b3 = seeded_tensor(Shape{hidden_},
                           weight_stream(seed, l, WeightTag::kBeta3), 0.05f);
    }
    weights_.push_back(std::move(w));
  }
}

bool ModelRuntime::matches(const ModelSpec& spec, std::int64_t heads,
                           std::int64_t head_size,
                           const gpusim::DeviceSpec& device) const {
  return spec == spec_ && heads == heads_ && head_size == head_size_ &&
         models::device_fingerprint(device) == device_fp_;
}

graph::Graph ModelRuntime::build_graph(std::int64_t rows) const {
  graph::LayerConfig lc;
  lc.batch = 1;
  lc.seq_len = rows;
  lc.hidden = hidden_;
  lc.heads = heads_;
  lc.ffn_dim = ffn_;
  const int layers = static_cast<int>(spec_.layers);
  switch (spec_.kind) {
    case ModelKind::kBertEncoder:
      return graph::build_encoder_graph(lc, layers);
    case ModelKind::kGptDecoder:
      return graph::build_decoder_graph(lc, layers);
    case ModelKind::kT5CrossDecoder:
      lc.activation = graph::OpKind::kRelu;
      lc.use_bias = false;
      return graph::build_cross_decoder_graph(lc, layers);
    case ModelKind::kNone:
      break;
  }
  STOF_CHECK(false, "build_graph needs an enabled model kind");
  return graph::Graph{};  // unreachable
}

void ModelRuntime::prewarm(std::int64_t rows) {
  if (!spec_.fused) return;
  (void)plan_for(rows);
}

const models::ExecutionPlan& ModelRuntime::plan_for(std::int64_t rows) {
  const std::int64_t bucket = models::shape_bucket(rows);
  auto it = plans_.find(bucket);
  if (it != plans_.end()) return it->second;

  const graph::Graph bg = build_graph(bucket);
  const models::TuneKey key{models::graph_fingerprint(bg), bucket,
                            device_fp_};
  const auto n_ops = static_cast<std::int64_t>(bg.size());
  if (db_) {
    telemetry::ScopedTimer timer("wall.tunedb.load_us");
    if (auto plan = db_->load(key, n_ops)) {
      return plans_.emplace(bucket, std::move(*plan)).first->second;
    }
  }

  // Cold: run the two-stage search at the bucket shape.  The mask only
  // prices the MHA segments (invariant across schemes), so serving's
  // always-causal triangle stands in for every request pattern.
  telemetry::ScopedTimer timer("wall.tunedb.tune_us");
  const models::Executor exec(
      bg, mha::MhaDims{1, heads_, bucket, head_size_},
      masks::MaskSpec{.kind = masks::PatternKind::kCausal, .seq_len = bucket},
      device_);
  models::ExecutionPlan plan =
      tuner::SearchEngine(exec, load_time_options()).tune().best_plan;
  telemetry::count("serve.model.tunes");
  if (db_) db_->store(key, plan);
  return plans_.emplace(bucket, std::move(plan)).first->second;
}

double ModelRuntime::charge_step(gpusim::Stream& stream, std::int64_t rows) {
  STOF_EXPECTS(rows > 0);
  telemetry::count("serve.model.steps");
  telemetry::count("serve.model.rows", rows);
  const graph::Graph g = build_graph(rows);
  double us = 0;

  if (!spec_.fused) {
    // Launch-per-op eager baseline: every non-MHA operator is its own
    // kernel and pays the framework dispatch latency on top of the launch.
    const fusion::TemplateParams defaults;
    for (const auto& node : g.nodes()) {
      if (node.kind == graph::OpKind::kInput || graph::is_mha_op(node.kind)) {
        continue;
      }
      gpusim::KernelCost cost =
          fusion::single_op_cost(node, defaults, device_);
      cost.dispatch_us = device_.dispatch_overhead_us;
      us += stream.launch("serve.model.op", cost);
      telemetry::count("serve.model.op_launches");
    }
    return us;
  }

  // Fused: replay the tuned plan's segments at this step's actual row
  // count.  The scheme was tuned at the bucket shape, whose graph has the
  // same operator sequence, so segment boundaries and template kinds map
  // one-to-one; only the per-row work scales.  MHA segments are skipped —
  // the engine's real attention kernels already charged them.
  const models::ExecutionPlan& plan = plan_for(rows);
  const auto segments = plan.scheme.segments();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const fusion::Segment& seg = segments[i];
    const fusion::TemplateKind kind = fusion::classify_segment(g, seg);
    if (kind == fusion::TemplateKind::kUnifiedMha) continue;
    if (seg.size() == 1 &&
        g.node(seg.begin).kind == graph::OpKind::kInput) {
      continue;
    }
    const fusion::TemplateParams params = plan.segment_params.empty()
                                              ? fusion::TemplateParams{}
                                              : plan.segment_params[i];
    gpusim::KernelCost cost =
        fusion::segment_cost(g, seg, kind, params, device_);
    if (cost.occupancy <= 0 && cost.launches > 0) {
      // A block shape tuned at the bucket can (rarely) be infeasible at
      // another row count; fall back to template defaults, never crash.
      cost = fusion::segment_cost(g, seg, kind, fusion::TemplateParams{},
                                  device_);
    }
    us += stream.launch("serve.model." + fusion::to_string(kind), cost);
    telemetry::count("serve.model.segment_launches", cost.launches);
  }
  return us;
}

void ModelRuntime::transform_rows(TensorH& x) const {
  STOF_CHECK(!weights_.empty(),
             "transform_rows needs a with_weights runtime");
  STOF_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == hidden_);
  const std::int64_t n = x.shape()[0];
  TensorH t1(Shape{n, hidden_}), t2(Shape{n, hidden_});
  TensorH f(Shape{n, ffn_});

  for (const LayerWeights& w : weights_) {
    switch (spec_.kind) {
      case ModelKind::kBertEncoder: {
        // Post-LN: x = LN2(LN1(x + proj(x)) + ffn(LN1(...))).
        ops::matmul2d(x, w.wo, t1);
        ops::bias_add(t1, w.bo, t1);
        ops::residual_add(x, t1, t1);
        ops::layernorm(t1, w.g1, w.b1, t2);
        ops::matmul2d(t2, w.wf1, f);
        ops::bias_add(f, w.bf1, f);
        ops::gelu_op(f, f);
        ops::matmul2d(f, w.wf2, t1);
        ops::bias_add(t1, w.bf2, t1);
        ops::residual_add(t2, t1, t1);
        ops::layernorm(t1, w.g2, w.b2, x);
        break;
      }
      case ModelKind::kGptDecoder: {
        // Pre-LN: x += proj(LN1(x)); x += ffn(LN2(x)).
        ops::layernorm(x, w.g1, w.b1, t1);
        ops::matmul2d(t1, w.wo, t2);
        ops::bias_add(t2, w.bo, t2);
        ops::residual_add(x, t2, x);
        ops::layernorm(x, w.g2, w.b2, t1);
        ops::matmul2d(t1, w.wf1, f);
        ops::bias_add(f, w.bf1, f);
        ops::gelu_op(f, f);
        ops::matmul2d(f, w.wf2, t2);
        ops::bias_add(t2, w.bf2, t2);
        ops::residual_add(x, t2, x);
        break;
      }
      case ModelKind::kT5CrossDecoder: {
        // Pre-LN self + cross + FFN blocks, bias-free, ReLU.
        ops::layernorm(x, w.g1, w.b1, t1);
        ops::matmul2d(t1, w.wo, t2);
        ops::residual_add(x, t2, x);
        ops::layernorm(x, w.g2, w.b2, t1);
        ops::matmul2d(t1, w.wc, t2);
        ops::residual_add(x, t2, x);
        ops::layernorm(x, w.g3, w.b3, t1);
        ops::matmul2d(t1, w.wf1, f);
        ops::relu(f, f);
        ops::matmul2d(f, w.wf2, t2);
        ops::residual_add(x, t2, x);
        break;
      }
      case ModelKind::kNone:
        STOF_CHECK(false, "unreachable");
    }
  }
}

}  // namespace stof::serve
