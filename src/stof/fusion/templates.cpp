#include "stof/fusion/templates.hpp"

#include <sstream>

#include "stof/ops/fused.hpp"

namespace stof::fusion {

std::string to_string(TemplateKind kind) {
  switch (kind) {
    case TemplateKind::kUnifiedMha: return "unified_mha";
    case TemplateKind::kGemmChain: return "gemm_chain";
    case TemplateKind::kGemmEpilogue: return "gemm_epilogue";
    case TemplateKind::kMiChain: return "mi_chain";
    case TemplateKind::kSingleOp: return "single_op";
  }
  return "unknown";
}

TemplateKind classify_segment(const graph::Graph& g, const Segment& seg) {
  STOF_EXPECTS(seg.begin >= 0 && seg.end <= static_cast<std::int64_t>(g.size()) &&
               seg.begin < seg.end);
  // Only a complete [ScoreGemm, MaskApply, Softmax, PvGemm] run maps to the
  // unified MHA kernel; partial groupings (e.g. Bolt's GEMM + softmax
  // epilogue) classify by their generic composition below.
  const auto mha = graph::Graph::mha_pattern();
  if (seg.size() == static_cast<std::int64_t>(mha.size())) {
    bool is_mha = true;
    for (std::size_t j = 0; j < mha.size(); ++j) {
      if (g.node(seg.begin + static_cast<std::int64_t>(j)).kind != mha[j]) {
        is_mha = false;
        break;
      }
    }
    if (is_mha) return TemplateKind::kUnifiedMha;
  }
  if (seg.size() == 1) return TemplateKind::kSingleOp;
  std::int64_t ci = 0;
  for (std::int64_t i = seg.begin; i < seg.end; ++i) {
    ci += graph::is_compute_intensive(g.node(i).kind) ? 1 : 0;
  }
  if (ci >= 2) return TemplateKind::kGemmChain;
  if (ci == 1) return TemplateKind::kGemmEpilogue;
  return TemplateKind::kMiChain;
}

std::string TemplateParams::key() const {
  std::ostringstream os;
  os << gemm.block_m << '.' << gemm.block_n << '.' << gemm.block_k << '.'
     << gemm.num_warps << '.' << gemm.num_stages << '|' << ew.block_size << '.'
     << ew.items_per_thread << '|' << norm.block_size << '.'
     << norm.rows_per_block;
  return os.str();
}

std::vector<TemplateParams> template_param_space(TemplateKind kind) {
  std::vector<TemplateParams> space;
  switch (kind) {
    case TemplateKind::kGemmChain:
    case TemplateKind::kGemmEpilogue: {
      for (const auto& gp : ops::gemm_param_space()) {
        TemplateParams p;
        p.gemm = gp;
        space.push_back(p);
      }
      break;
    }
    case TemplateKind::kMiChain: {
      for (const auto& ep : ops::elementwise_param_space()) {
        TemplateParams p;
        p.ew = ep;
        space.push_back(p);
      }
      for (const auto& np : ops::norm_param_space()) {
        TemplateParams p;
        p.norm = np;
        space.push_back(p);
      }
      break;
    }
    case TemplateKind::kSingleOp: {
      // The live fields depend on the operator; expose a mixed space.
      for (const auto& gp : ops::gemm_param_space()) {
        if (gp.block_k != 32 || gp.num_stages != 3) continue;  // thinned
        TemplateParams p;
        p.gemm = gp;
        space.push_back(p);
      }
      for (const auto& ep : ops::elementwise_param_space()) {
        TemplateParams p;
        p.ew = ep;
        space.push_back(p);
      }
      for (const auto& np : ops::norm_param_space()) {
        TemplateParams p;
        p.norm = np;
        space.push_back(p);
      }
      break;
    }
    case TemplateKind::kUnifiedMha:
      // MHA parameters are owned by the unified MHA module's analytical
      // selector, not the downstream tuner.
      space.push_back(TemplateParams{});
      break;
  }
  STOF_ENSURES(!space.empty());
  return space;
}

namespace {

constexpr double kElem = 2.0;  // FP16 bytes

double node_bytes(const graph::Node& n) {
  return static_cast<double>(n.rows) * static_cast<double>(n.cols) * kElem;
}

// Approximate scalar work of one MI operator, per element.
double mi_flops_per_element(graph::OpKind kind) {
  switch (kind) {
    case graph::OpKind::kBias: return 1.0;
    case graph::OpKind::kResidualAdd: return 1.0;
    case graph::OpKind::kRelu: return 1.0;
    case graph::OpKind::kGelu: return 10.0;
    case graph::OpKind::kMaskApply: return 1.0;
    case graph::OpKind::kSoftmax: return 5.0;
    case graph::OpKind::kLayerNorm: return 8.0;
    default: return 0.0;
  }
}

bool is_row_reduction(graph::OpKind kind) {
  return kind == graph::OpKind::kLayerNorm ||
         kind == graph::OpKind::kSoftmax;
}

}  // namespace

gpusim::KernelCost single_op_cost(const graph::Node& node,
                                  const TemplateParams& params,
                                  const gpusim::DeviceSpec& dev) {
  using graph::OpKind;
  switch (node.kind) {
    case OpKind::kInput: {
      gpusim::KernelCost zero;
      zero.launches = 0;
      return zero;
    }
    case OpKind::kQkvProj:
    case OpKind::kScoreGemm:
    case OpKind::kPvGemm:
    case OpKind::kOutProj:
    case OpKind::kFfnGemm:
      return ops::gemm_cost({1, node.rows, node.cols, node.inner},
                            params.gemm, dev);
    case OpKind::kLayerNorm:
      return ops::layernorm_cost(node.rows, node.cols, params.norm, dev);
    case OpKind::kSoftmax:
      return ops::softmax_cost(node.rows, node.cols, /*with_mask=*/false,
                               params.norm, dev);
    case OpKind::kMaskApply: {
      const double bytes = node_bytes(node);
      // Scores + dense mask in, scores out.
      return ops::elementwise_cost(node.rows * node.cols, 1.0, 2.0 * bytes,
                                   bytes, params.ew, dev);
    }
    case OpKind::kBias:
    case OpKind::kGelu:
    case OpKind::kRelu: {
      const double bytes = node_bytes(node);
      return ops::elementwise_cost(node.rows * node.cols,
                                   mi_flops_per_element(node.kind), bytes,
                                   bytes, params.ew, dev);
    }
    case OpKind::kResidualAdd: {
      const double bytes = node_bytes(node);
      return ops::elementwise_cost(node.rows * node.cols, 1.0, 2.0 * bytes,
                                   bytes, params.ew, dev);
    }
  }
  STOF_CHECK(false, "unreachable");
}

gpusim::KernelCost segment_cost(const graph::Graph& g, const Segment& seg,
                                TemplateKind kind,
                                const TemplateParams& params,
                                const gpusim::DeviceSpec& dev) {
  STOF_EXPECTS(kind != TemplateKind::kUnifiedMha,
               "MHA segments are costed via UnifiedMha");
  if (kind == TemplateKind::kSingleOp) {
    return single_op_cost(g.node(seg.begin), params, dev);
  }

  // Gather segment composition.
  std::vector<const graph::Node*> ci_nodes;
  double mi_flops = 0;
  double extra_reads = 0;  // residual skip operands, dense mask streams
  bool has_reduction = false;
  for (std::int64_t i = seg.begin; i < seg.end; ++i) {
    const auto& n = g.node(i);
    if (graph::is_compute_intensive(n.kind)) {
      ci_nodes.push_back(&n);
      continue;
    }
    mi_flops += mi_flops_per_element(n.kind) * static_cast<double>(n.rows) *
                static_cast<double>(n.cols);
    has_reduction = has_reduction || is_row_reduction(n.kind);
    if (n.kind == graph::OpKind::kResidualAdd ||
        n.kind == graph::OpKind::kMaskApply) {
      extra_reads += node_bytes(n);  // second operand streamed from HBM
    }
  }

  if (kind == TemplateKind::kMiChain) {
    STOF_EXPECTS(ci_nodes.empty());
    const auto& first = g.node(seg.begin);
    const auto& last = g.node(seg.end - 1);
    gpusim::KernelCost c;
    if (has_reduction) {
      c = ops::layernorm_cost(first.rows, std::max(first.cols, last.cols),
                              params.norm, dev);
      c.cuda_flops = mi_flops;
    } else {
      c = ops::elementwise_cost(
          first.rows * first.cols, 1.0, node_bytes(first), node_bytes(last),
          params.ew, dev);
      c.cuda_flops = mi_flops;
    }
    c.gmem_read_bytes += extra_reads;
    return c;
  }

  if (kind == TemplateKind::kGemmEpilogue) {
    STOF_EXPECTS(ci_nodes.size() == 1);
    const auto& gm = *ci_nodes.front();
    gpusim::KernelCost c;
    if (has_reduction) {
      // LayerNorm/Softmax epilogues pin a whole output row per block.
      c = ops::fused_gemm_layernorm_cost({1, gm.rows, gm.cols, gm.inner},
                                         params.gemm, dev);
    } else {
      c = ops::gemm_cost({1, gm.rows, gm.cols, gm.inner}, params.gemm, dev);
    }
    c.cuda_flops += mi_flops;  // bias/activation lanes ride the epilogue
    c.gmem_read_bytes += extra_reads;
    return c;
  }

  STOF_EXPECTS(kind == TemplateKind::kGemmChain && ci_nodes.size() == 2);
  const auto& g1 = *ci_nodes[0];
  const auto& g2 = *ci_nodes[1];
  STOF_EXPECTS(g2.inner == g1.cols && g2.rows == g1.rows,
               "chained GEMMs must be dimension compatible");
  gpusim::KernelCost c = ops::fused_gemm_gemm_cost(
      {1, g1.rows, g1.inner, g1.cols, g2.cols}, params.gemm, dev);
  c.cuda_flops += mi_flops;
  c.gmem_read_bytes += extra_reads;
  if (has_reduction) {
    // A reduction inside the chain serializes the pipeline stages.
    c.overlap = std::min(c.overlap, 0.5);
  }
  return c;
}

}  // namespace stof::fusion
