// Block-wise sparse MHA kernel (paper §4.2, Fig. 6 / Fig. 7).
//
// Q is cut into (BLOCK_M x head_size) sub-blocks, each owning one thread
// block; K^T and V are cut into (BLOCK_N x head_size) sub-blocks iterated
// along seq_len.  The BSR mask's load_row_ptr/load_col_idx drive the inner
// loop: only valid sub-blocks are loaded into shared memory and computed —
// empty blocks cost nothing, which is where the long-sequence speedups
// come from.  After the score GEMM, "part" blocks fetch their (deduped,
// broadcast) bitmap via part_col_idx and mask invalid lanes to -inf;
// "full" blocks skip the mask entirely and compute densely.
//
// The wmma scheduling of Fig. 7 appears in the cost model as:
//   * tensor-core FLOPs for both tile GEMMs (QK^T and PV),
//   * a single shared K/V buffer used alternately (req_SMEM of Eq. 2),
//   * cp.async pipelining of V loads behind the score math (overlap),
//   * SMEM padding that removes the bank-conflict multiplier.
//
// On the host, the packed FP32 path runs each Q sub-block as one lane tile
// (core::KernelTable::attn_lane_block): every query row owns a vector
// lane, so a block's scores, online-softmax update and PV accumulate
// advance all rows at once while each row keeps the scalar reference's
// operation order; the scalar reference and the INT8 tier run row by row.
// Every softmax exp goes through core::exp_f32.
#pragma once

#include <functional>

#include "stof/core/kernels.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/sparse/bsr_mask.hpp"

namespace stof::mha {

/// Tunable launch parameters of the block-wise kernel (paper Eq. 2).
/// BLOCK_M and BLOCK_N must be multiples of 16 and powers of two.
struct BlockwiseParams {
  int block_m = 64;
  int block_n = 64;
  int num_warps = 4;
  int padding = 16;        ///< SMEM padding elements; 0 re-enables conflicts
  bool async_copy = true;  ///< pipeline V loads behind the score GEMM
  /// Ablation: ignore the full/part classification and load + apply a
  /// bitmap for every valid block (as a coarse block-mask kernel would).
  bool treat_full_as_part = false;
  /// Storage tier of the cached K/V panels (packed mode only).  kInt8 runs
  /// both tile GEMMs over quantized panels with exact int32 accumulation —
  /// deterministic, roughly half the panel-conversion traffic, but not
  /// bit-identical to FP32, so call sites opt in explicitly.  Scalar
  /// execution ignores the field (it is the FP32 reference).
  core::PanelPrecision kv_precision = core::PanelPrecision::kFloat32;

  void validate() const;

  friend bool operator==(const BlockwiseParams&,
                         const BlockwiseParams&) = default;
};

/// Shared-memory bytes required by one thread block (paper Eq. 2, first
/// line, in FP16 elements): (2*BM + BN)*(w + padding) + BM*(BN + padding).
std::int64_t blockwise_req_smem_bytes(const BlockwiseParams& params,
                                      std::int64_t head_size);

/// Optional score modification applied after scaling and before masking
/// (relative position biases, ALiBi slopes, soft capping, ...).  Arguments:
/// (batch*head instance, query row, key column, scaled score) -> new score.
/// This is the expression-based flexibility FlexAttention offers; STOF
/// composes it with the block-sparse skip machinery.
using ScoreMod = std::function<float(std::int64_t, std::int64_t, std::int64_t,
                                     float)>;

class KvPanelCache;

/// Functional execution over the BSR mask: streaming softmax across valid
/// blocks, full/part paths as in the paper.  The BSR block sizes must match
/// `params`.
///
/// `shared_panels` (packed mode only) supplies pre-converted transposed-K /
/// row-major-V float panels covering this problem's K/V instances starting
/// at `shared_kv_offset` — the varlen wrapper passes one whole-batch panel
/// cache so its per-element sub-calls stop duplicating conversions.  When
/// null, the kernel fetches panels from the global cross-call registry.
///
/// `q_block_begin`/`q_block_end` restrict execution to the query block-rows
/// in [q_block_begin, q_block_end) (`q_block_end < 0` means every row).
/// Each Q block-row owns an independent streaming-softmax chain, so a
/// windowed call computes exactly the bytes a full call would write for
/// those rows — the mechanism chunked prefill uses to resume a prompt
/// mid-sequence bit-identically.  Output rows outside the window are left
/// zero-initialised (never written).
TensorH blockwise_attention(const MhaDims& dims, const TensorH& q,
                            const TensorH& k, const TensorH& v,
                            const sparse::BsrMask& mask,
                            const BlockwiseParams& params,
                            const ScoreMod& score_mod = nullptr,
                            const KvPanelCache* shared_panels = nullptr,
                            std::int64_t shared_kv_offset = 0,
                            std::int64_t q_block_begin = 0,
                            std::int64_t q_block_end = -1);

/// Simulated cost of one block-wise kernel launch, optionally restricted to
/// the query block-row window [q_block_begin, q_block_end) — the cost twin
/// of a windowed blockwise_attention call.  The default window covers the
/// whole mask and reproduces the unwindowed cost exactly.
gpusim::KernelCost blockwise_cost(const MhaDims& dims,
                                  const sparse::BsrMask& mask,
                                  const BlockwiseParams& params,
                                  const gpusim::DeviceSpec& dev,
                                  std::int64_t q_block_begin = 0,
                                  std::int64_t q_block_end = -1);

}  // namespace stof::mha
