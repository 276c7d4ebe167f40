// Block-wise sparse MHA kernel (paper §4.2, Fig. 6 / Fig. 7).
//
// Q is cut into (BLOCK_M x head_size) sub-blocks, each owning one thread
// block; K and V are cut into (BLOCK_N x head_size) sub-blocks iterated
// along seq_len, each read where it lives (a padded tensor's panel or a KV
// pool page) through a base pointer and a row stride.  The BSR mask's
// load_row_ptr/load_col_idx drive the inner
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
// On the host, the kernel runs each Q sub-block as one lane tile
// (core::KernelTable::attn_lane_block) over FP32 K/V rows: every query row
// owns a vector lane, so a block's scores, online-softmax update and PV
// accumulate advance all rows at once while each row keeps the operation
// order of the row-by-row scalar reference (the test oracle).  Every
// softmax exp goes through core::exp_f32.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "stof/core/kernels.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/mha/decode.hpp"
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

/// Rows of one attention operand, found by base pointer plus row stride.
/// Row r of instance i lives at
///   contiguous: base + i * inst_stride + (r - row0) * ld
///   paged:      pages[r / page_rows] + i * inst_stride + (r % page_rows) * ld
/// A padded (instances, seq, d) tensor is the contiguous case with ld = d
/// and inst_stride = seq * d; a KV-pool page (block_tokens, heads, d) is
/// the paged case with ld = heads * d and inst_stride = d.  Rows of one
/// key block never straddle a page (page_rows == BLOCK_N).
template <typename T>
struct RowView {
  T* base = nullptr;
  std::span<T* const> pages = {};
  std::int64_t page_rows = 0;
  std::int64_t row0 = 0;  ///< first row a contiguous view holds
  std::int64_t ld = 0;
  std::int64_t inst_stride = 0;

  [[nodiscard]] bool empty() const { return base == nullptr && pages.empty(); }
  [[nodiscard]] T* row(std::int64_t inst, std::int64_t r) const {
    if (pages.empty()) return base + inst * inst_stride + (r - row0) * ld;
    return pages[static_cast<std::size_t>(r / page_rows)] +
           inst * inst_stride + (r % page_rows) * ld;
  }
};

/// Padded (instances, seq, d) storage from instance `first` on: one
/// contiguous run of (seq x d) instance panels.
template <typename T>
[[nodiscard]] RowView<T> padded_rows(T* data, std::int64_t seq,
                                     std::int64_t d, std::int64_t first = 0) {
  return {data + first * seq * d, {}, 0, 0, d, seq * d};
}

/// Where a block-wise launch reads its operands and writes its output:
/// half query rows, FP32 K/V rows (exact widenings of half values), half
/// output rows.
struct BlockwiseOperands {
  RowView<const half> q = {};
  RowView<const float> k = {};
  RowView<const float> v = {};
  RowView<half> out = {};
  std::int64_t out_row0 = 0;  ///< rows below are computed but not stored
};

/// Row-major FP32 widening of a whole K or V tensor, a rank-3 tensor's
/// (seq x d) instances converted in parallel into an uninitialised buffer
/// (every element is written once).  The tensor-level kernels widen their
/// K/V inputs per call, as GEMM widens its A operand.
std::unique_ptr<const float[]> widen(const TensorH& t);

/// Functional execution over the BSR mask: streaming softmax across valid
/// blocks, full/part paths as in the paper.  The BSR block sizes must match
/// `params`.  K/V are read through widen().
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
                            std::int64_t q_block_begin = 0,
                            std::int64_t q_block_end = -1);

/// The kernel over operand views: the one loop behind blockwise_attention,
/// the varlen wrapper and the paged prefill.  `dims.seq_len` is the number
/// of valid query and key rows; `mask` may be wider (a padded prefix BSR),
/// its rows and columns past dims.seq_len are never visited.  The window
/// [q_block_begin, q_block_end) must lie within ceil(seq_len / BLOCK_M).
void blockwise_attention_rows(const MhaDims& dims, const BlockwiseOperands& io,
                              const sparse::BsrMask& mask,
                              const BlockwiseParams& params,
                              const ScoreMod& score_mod,
                              std::int64_t q_block_begin,
                              std::int64_t q_block_end);

/// Block-wise attention of one sequence whose K/V live in a paged KV cache
/// (the serving prefill).  Key block bj is page bj, so
/// `kv.block_tokens` must equal BLOCK_N.  `kv.cols` is unused:
/// `mask` (at least kv.context_len wide) decides what each row attends.
/// `q` holds query rows [q_row0, context_len) token-major (row r at
/// (r - q_row0) * heads * head_size, head h at + h * head_size), q_row0 a
/// multiple of BLOCK_M; rows [out_row0, context_len) are written to `out`
/// in the same layout.
void blockwise_attention_paged(std::int64_t heads, std::int64_t head_size,
                               const PagedSeq& kv,
                               const sparse::BsrMask& mask,
                               const BlockwiseParams& params,
                               std::span<const half> q, std::int64_t q_row0,
                               std::span<half> out, std::int64_t out_row0);

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
