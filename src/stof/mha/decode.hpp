// Decode attention over a paged KV cache (extension).
//
// Autoregressive generation issues one query row per step against the
// cached keys/values of the context — the degenerate case of the row-wise
// kernel (one warp per (sequence, head) instance).  The paper's conclusion
// points at "other DNN scenarios"; this is the decode-side one.  There is
// one kernel, decode_attention_paged, which reads each sequence's K/V
// where the serving KV pool keeps them (fixed-size FP32 pages holding
// exact widenings of half values), and one cost routine,
// decode_verify_cost, which also covers a speculative verification round.
// A step's attended columns are a row of the sequence's mask
// (sparse::BsrMask::row_cols).
#pragma once

#include <span>

#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/mha/attention.hpp"

namespace stof::mha {

/// One sequence's view of a paged KV-cache for a batched decode step (and
/// for a paged prefill, which takes its columns from the mask, not `cols`).
///
/// Block i holds positions [i*block_tokens, (i+1)*block_tokens); each block
/// is (block_tokens, heads, head_size) row-major FP32, so a serving KV pool
/// can hand out non-contiguous fixed-size pages without gathering.  Every
/// element is the exact widening of a half value (the modelled GPU stores
/// FP16), so the kernels compute what per-element float(half) loads would.
struct PagedSeq {
  std::int64_t context_len = 0;   ///< cached tokens this query may see
  std::int64_t block_tokens = 0;  ///< positions per KV block (power of two)
  std::span<const float* const> k_blocks;
  std::span<const float* const> v_blocks;
  /// Attendable positions, ascending, all in [0, context_len).
  std::span<const std::int32_t> cols;

  void validate(std::int64_t heads, std::int64_t head_size) const;
};

/// Batched ragged decode: q is (seqs.size()*heads, 1, head_size), sequence
/// s owning query instances [s*heads, (s+1)*heads); returns the same shape.
/// Every (sequence, head) instance is independent, so results do not depend
/// on how sequences are batched together.
///
/// The context is streamed block-by-block with the block-wise kernel's
/// streaming-softmax update order (block max, correction, ascending-column
/// weight sum, then the PV accumulate).  Masked columns inside a visited
/// block contribute exact zeros there, so a chain of single-token paged
/// decode steps is bit-identical to one full-sequence blockwise pass over
/// the same mask when block_tokens == BLOCK_N — the invariant the serving
/// engine's preemption/recompute path relies on.
TensorH decode_attention_paged(std::int64_t heads, std::int64_t head_size,
                               std::span<const PagedSeq> seqs,
                               const TensorH& q);

/// Simulated cost of one batched paged-decode launch, which is a
/// speculative *verification* round in general: sequence s contributes `seq_rows[s]` consecutive query rows (the true token plus
/// its drafts), with `valid_cols` holding the per-row attended-column
/// counts flattened in the same order (sum(seq_rows) == valid_cols.size()).
/// Math and q/output traffic are charged per row, one warp per (row,
/// head); KV-page DRAM traffic is charged once per sequence at the row
/// maximum — the verify rows attend nested prefixes of the same
/// context, so rows past the first are L2/SMEM hits, which is the
/// bandwidth saving that makes one k-row verification launch cheaper than
/// k sequential decode launches.  With every `seq_rows` entry 1 this is
/// the plain batched decode step's cost.
gpusim::KernelCost decode_verify_cost(std::int64_t heads,
                                      std::int64_t head_size,
                                      std::span<const std::int64_t> valid_cols,
                                      std::span<const std::int64_t> seq_rows,
                                      const gpusim::DeviceSpec& dev);

}  // namespace stof::mha
