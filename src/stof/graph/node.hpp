// Operator-graph nodes.
//
// STOF captures the model's forward pass as a sequence of coarse-grained
// native operators (the torch.fx capture of the paper's Fig. 8).  A
// transformer block linearizes naturally: residual edges are carried as a
// `skip_from` reference on the Add node, so fusion schemes can be encoded
// as arrays over the linear operator order exactly as in §4.3.
#pragma once

#include <cstdint>
#include <string>

namespace stof::graph {

enum class OpKind {
  kInput,         // graph input placeholder
  kQkvProj,       // fused Q/K/V projection GEMM: (rows, h) -> (rows, 3h)
  kScoreGemm,     // Q K^T (start of the MHA sub-graph)
  kMaskApply,     // sparse mask on the score matrix
  kSoftmax,       // row softmax of scores
  kPvGemm,        // P V (end of the MHA sub-graph)
  kOutProj,       // attention output projection GEMM
  kFfnGemm,       // feed-forward GEMM
  kBias,          // bias add
  kGelu,          // GELU activation
  kRelu,          // ReLU activation
  kResidualAdd,   // x + skip
  kLayerNorm,     // layer normalization
};

/// True for compute-intensive (CI) operators; everything else is
/// memory-intensive (MI) in the paper's classification.
[[nodiscard]] constexpr bool is_compute_intensive(OpKind kind) {
  switch (kind) {
    case OpKind::kQkvProj:
    case OpKind::kScoreGemm:
    case OpKind::kPvGemm:
    case OpKind::kOutProj:
    case OpKind::kFfnGemm:
      return true;
    default:
      return false;
  }
}

/// True for the four operators forming the MHA sub-graph ([#2-#6] in the
/// paper's numbering) that the unified MHA module fuses.
[[nodiscard]] constexpr bool is_mha_op(OpKind kind) {
  return kind == OpKind::kScoreGemm || kind == OpKind::kMaskApply ||
         kind == OpKind::kSoftmax || kind == OpKind::kPvGemm;
}

/// One operator in the linearized graph.
struct Node {
  std::int64_t id = -1;
  OpKind kind = OpKind::kInput;
  std::string label;

  // Logical tensor dimensions: elementwise/normalization ops use
  // (rows x cols); GEMM-like ops compute (rows x inner) * (inner x cols).
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t inner = 0;  ///< contraction dim; 0 for non-GEMM ops

  /// For kResidualAdd: id of the node whose output is the skip operand
  /// (-1 otherwise).
  std::int64_t skip_from = -1;
};

}  // namespace stof::graph
