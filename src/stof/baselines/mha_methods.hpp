// MHA-level baseline methods (paper §5.1.2).
//
// Every comparison method in Fig. 10/11 is re-implemented as a *policy* on
// the shared gpusim substrate, differing from STOF exactly in the
// dimensions the paper credits:
//
//   PyTorch Native   — four detached kernels (score GEMM, mask subtract,
//                      softmax, PV GEMM) with the dense score matrix
//                      round-tripping through global memory.
//   PyTorch Compile  — inductor fuses the mask subtract into the softmax
//                      and dispatches FlashAttention2 when the pattern
//                      allows; MHA-level it behaves like FA2 plus guard
//                      overhead.
//   FlashAttention2  — one fused dense kernel, fixed 128x64 tiling; skips
//                      blocks only for its natively supported patterns
//                      (causal, sliding window); everything else computes
//                      densely with an in-kernel mask subtract.
//   FlexAttention    — block-mask skipping for arbitrary patterns with
//                      full/partial distinction, but at a fixed coarse
//                      (128, 128) granularity, score-mod recomputation on
//                      partial blocks, and no parameter tuning.
//   ByteTransformer  — hand-fused kernel holding the score tile entirely
//                      on-chip; excellent short-sequence performance, no
//                      sparsity support, hard seq_len <= 1024 limit.
//   MCFuser          — loop-fused GEMM chain with an FP32 score workspace
//                      in global memory; no sparsity; the workspace
//                      overflows device memory at large input scales.
//   STOF             — the unified MHA module (row-wise / block-wise).
//
// All methods compute the same function, so only their cost differs:
// `simulate_mha` records the method's kernels on a Stream and reports
// support status (Fig. 10/11's missing bars).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "stof/gpusim/timeline.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/sparse/bsr_cache.hpp"

namespace stof::baselines {

enum class Method {
  kPytorchNative,
  kPytorchCompile,
  kFlashAttention2,
  kFlexAttention,
  kByteTransformer,
  kMcfuser,
  kBolt,
  kStof,
};

[[nodiscard]] std::string to_string(Method method);

/// Methods that appear in the MHA-level comparison (Bolt is end-to-end
/// only, per the paper).
[[nodiscard]] const std::vector<Method>& mha_methods();

/// Result of simulating one method on one configuration.
struct MhaSimResult {
  bool supported = true;
  std::string unsupported_reason;
  double time_us = 0;
};

/// Simulate `method` on the configuration, recording kernels on `stream`.
/// `pattern` tells methods with pattern-dependent fast paths (FA2) what the
/// mask is; `cache` provides BSR views of it.
MhaSimResult simulate_mha(Method method, const mha::MhaDims& dims,
                          masks::PatternKind pattern, sparse::BsrCache& cache,
                          gpusim::Stream& stream);

}  // namespace stof::baselines
