#include "stof/serve/model_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <map>
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

/// FFN width as a multiple of the hidden width (4 in BERT/GPT-2/T5).
constexpr std::int64_t kFfnMult = 4;
/// Seed of the layer head's weight streams.
constexpr std::uint64_t kWeightSeed = 0x57eadfa571ull;

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

/// The first weight stream of a layer's `ordinal`-th (from 0) node of
/// `kind`: the 1st/2nd out-projection draws kOutProj/kCrossProj, the
/// 1st/2nd FFN GEMM kFfnUp/kFfnDown, the biases outside the attention
/// block kOutBias/kFfnUpBias/kFfnDownBias in order, and the i-th
/// LayerNorm kGamma{i+1} (its beta draws the next tag).  -1: no weights.
int first_tag(graph::OpKind kind, std::size_t ordinal) {
  using enum WeightTag;
  static const std::map<graph::OpKind, std::vector<WeightTag>> tags = {
      {graph::OpKind::kOutProj, {kOutProj, kCrossProj}},
      {graph::OpKind::kFfnGemm, {kFfnUp, kFfnDown}},
      {graph::OpKind::kBias, {kOutBias, kFfnUpBias, kFfnDownBias}},
      {graph::OpKind::kLayerNorm, {kGamma1, kGamma2, kGamma3}}};
  const auto it = tags.find(kind);
  if (it == tags.end()) return -1;
  STOF_CHECK(ordinal < it->second.size(),
             "the layer graph has more weighted ops of one kind than the "
             "head has weight streams");
  return static_cast<int>(it->second[ordinal]);
}

std::uint64_t weight_stream(std::int64_t layer, int tag) {
  std::uint64_t h =
      fnv1a64(&layer, sizeof(layer), kWeightSeed ^ kFnv1aOffset);
  return fnv1a64(&tag, sizeof(tag), h);
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
}

ModelRuntime::ModelRuntime(const ModelSpec& spec, std::int64_t heads,
                           std::int64_t head_size,
                           const gpusim::DeviceSpec& device,
                           bool with_weights)
    : spec_(spec),
      heads_(heads),
      head_size_(head_size),
      hidden_(heads * head_size),
      ffn_(kFfnMult * heads * head_size),
      device_(device),
      device_fp_(models::device_fingerprint(device)) {
  spec_.validate();
  STOF_EXPECTS(spec_.enabled(), "ModelRuntime needs an enabled ModelSpec");
  STOF_EXPECTS(heads_ > 0 && head_size_ > 0);
  if (!spec_.tune_db_dir.empty()) db_.emplace(spec_.tune_db_dir);

  // The head is one layer of the model graph.  The attention block (QKV
  // projection through P·V) passes its input through, so value[i] is the
  // node whose output node i carries; last_read[v] is the last node that
  // reads value v (n: the layer's output, read by the next layer).
  const graph::Graph layer = build_graph(/*rows=*/1, /*layers=*/1);
  const std::vector<graph::Node>& nodes = layer.nodes();
  const std::size_t n = nodes.size();
  std::vector<std::size_t> value(n, 0), last_read(n, 0);
  bool attention = false;
  for (std::size_t i = 1; i < n; ++i) {
    const graph::Node& node = nodes[i];
    attention = attention || node.kind == graph::OpKind::kQkvProj;
    if (attention) {
      value[i] = value[i - 1];
      attention = node.kind != graph::OpKind::kPvGemm;
      continue;
    }
    value[i] = i;
    last_read[value[i - 1]] = i;
    if (node.skip_from >= 0) {
      last_read[value[static_cast<std::size_t>(node.skip_from)]] = i;
    }
  }
  last_read[value[n - 1]] = n;

  // Elementwise ops write in place over an operand they read last (a
  // residual add's skip operand first); GEMMs and LayerNorm write to a
  // buffer of their width whose value is dead.  Buffer 0 holds the
  // layer's input and must hold its output.
  std::vector<std::size_t> held{0};  // buffer -> the value it holds
  std::vector<int> buffer_of(n, 0);
  std::map<graph::OpKind, std::size_t> ordinal;
  buffer_cols_ = {hidden_};
  for (std::size_t i = 1; i < n; ++i) {
    if (value[i] != i) continue;
    const graph::Node& node = nodes[i];
    const int skip =
        node.skip_from < 0
            ? -1
            : buffer_of[value[static_cast<std::size_t>(node.skip_from)]];
    HeadOp op{node.kind, i, buffer_of[value[i - 1]], skip, -1,
              first_tag(node.kind, ordinal[node.kind]++)};
    const bool elementwise = !graph::is_compute_intensive(node.kind) &&
                             node.kind != graph::OpKind::kLayerNorm;
    for (const int b : {op.skip, op.in}) {
      if (elementwise && b >= 0 &&
          last_read[held[static_cast<std::size_t>(b)]] == i) {
        op.out = b;
        break;
      }
    }
    for (std::size_t b = 0; op.out < 0 && b < held.size(); ++b) {
      if (buffer_cols_[b] == node.cols && last_read[held[b]] < i) {
        op.out = static_cast<int>(b);
      }
    }
    if (op.out < 0) {
      op.out = static_cast<int>(held.size());
      held.push_back(i);
      buffer_cols_.push_back(node.cols);
    }
    held[static_cast<std::size_t>(op.out)] = i;
    buffer_of[i] = op.out;
    head_.push_back(op);
  }
  STOF_CHECK(buffer_of[value[n - 1]] == 0,
             "the layer head must end in its input buffer");
  if (!with_weights) return;

  // Fan-in scaled weights keep activations O(1) through arbitrarily many
  // layers (LayerNorm re-centers between them).
  weights_.reserve(static_cast<std::size_t>(spec_.layers) * head_.size());
  for (std::int64_t l = 0; l < spec_.layers; ++l) {
    for (const HeadOp& op : head_) {
      const graph::Node& node = nodes[op.node];
      OpWeights& w = weights_.emplace_back();
      if (graph::is_compute_intensive(node.kind)) {
        w.w = seeded_weight(
            Shape{node.inner, node.cols}, weight_stream(l, op.tag),
            1.0f / std::sqrt(static_cast<float>(node.inner)));
      } else if (node.kind == graph::OpKind::kBias) {
        w.a = seeded_tensor(Shape{node.cols}, weight_stream(l, op.tag), 0.1f);
      } else if (node.kind == graph::OpKind::kLayerNorm) {
        w.a = seeded_tensor(Shape{node.cols}, weight_stream(l, op.tag), 0.1f,
                            1.0f);
        w.b = seeded_tensor(Shape{node.cols}, weight_stream(l, op.tag + 1),
                            0.05f);
      }
    }
  }
}

bool ModelRuntime::matches(const ModelSpec& spec, std::int64_t heads,
                           std::int64_t head_size,
                           const gpusim::DeviceSpec& device) const {
  return spec == spec_ && heads == heads_ && head_size == head_size_ &&
         models::device_fingerprint(device) == device_fp_;
}

std::int64_t ModelRuntime::collectives_per_layer() const {
  return std::ranges::count_if(head_, [](const HeadOp& op) {
    return op.kind == graph::OpKind::kOutProj ||
           op.tag == static_cast<int>(WeightTag::kFfnDown);
  });
}

graph::Graph ModelRuntime::build_graph(std::int64_t rows,
                                       std::int64_t layers) const {
  graph::LayerConfig lc;
  lc.batch = 1;
  lc.seq_len = rows;
  lc.hidden = hidden_;
  lc.heads = heads_;
  lc.ffn_dim = ffn_;
  const int n = static_cast<int>(layers);
  switch (spec_.kind) {
    case ModelKind::kBertEncoder:
      return graph::build_encoder_graph(lc, n);
    case ModelKind::kGptDecoder:
      return graph::build_decoder_graph(lc, n);
    case ModelKind::kT5CrossDecoder:
      lc.activation = graph::OpKind::kRelu;
      lc.use_bias = false;
      return graph::build_cross_decoder_graph(lc, n);
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

  const graph::Graph bg = build_graph(bucket, spec_.layers);
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
  const graph::Graph g = build_graph(rows, spec_.layers);
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
  std::vector<TensorH> temps;
  std::vector<TensorH*> buf{&x};
  temps.reserve(buffer_cols_.size());
  for (std::size_t b = 1; b < buffer_cols_.size(); ++b) {
    buf.push_back(&temps.emplace_back(Shape{n, buffer_cols_[b]}));
  }

  const OpWeights* w = weights_.data();
  for (std::int64_t l = 0; l < spec_.layers; ++l) {
    for (const HeadOp& op : head_) {
      const TensorH& in = *buf[static_cast<std::size_t>(op.in)];
      TensorH& out = *buf[static_cast<std::size_t>(op.out)];
      switch (op.kind) {
        case graph::OpKind::kOutProj:
        case graph::OpKind::kFfnGemm:
          ops::matmul2d(in, w->w, out);
          break;
        case graph::OpKind::kBias:
          ops::bias_add(in, w->a, out);
          break;
        case graph::OpKind::kGelu:
          ops::gelu_op(in, out);
          break;
        case graph::OpKind::kRelu:
          ops::relu(in, out);
          break;
        case graph::OpKind::kResidualAdd:
          ops::residual_add(*buf[static_cast<std::size_t>(op.skip)], in, out);
          break;
        case graph::OpKind::kLayerNorm:
          ops::layernorm(in, w->a, w->b, out);
          break;
        default:
          STOF_CHECK(false, "the layer head has no op for this node kind");
      }
      ++w;
    }
  }
}

}  // namespace stof::serve
