// Decode attention over a paged KV cache (extension).
//
// Autoregressive generation issues one query row per step against the
// cached keys/values of the context.  The paper's conclusion points at
// "other DNN scenarios"; this is the decode-side one.  There is one
// kernel, decode_attention_paged, which reads each sequence's K/V where
// the serving KV pool keeps them (fixed-size FP32 pages holding exact
// widenings of half values), and one cost routine, decode_verify_cost,
// which also covers a speculative verification round.  A step's attended
// columns are a row of the sequence's mask (sparse::BsrMask::row_cols).
//
// Split-KV (Flash-Decoding; FlashAttention-2's sequence parallelism): a
// row's attended columns are cut into page-aligned chunks of
// decode_chunk_tokens(block_tokens) positions, one warp per (row, head,
// chunk) — so a batch-1 decode at a long context still fills the GPU —
// and the partial softmax states merge in ascending chunk order inside
// the same launch.  The split is a function of position only, never of
// the batch, mode or shard, so a row's output bits do not depend on what
// it is decoded with.  Within one chunk a chain of decode steps is
// bit-identical to one block-wise pass over the same mask; a row whose
// columns span several chunks merges, so it is not.  The serving engine
// never needs the cross-chunk identity: a preempted session re-prefills
// its context only to rebuild K/V, and never re-commits an output row.
#pragma once

#include <algorithm>
#include <span>

#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/mha/attention.hpp"

namespace stof::mha {

/// Minimum positions per split-KV chunk of a paged decode row.
inline constexpr std::int64_t kDecodeChunkTokens = 128;

/// Positions per split-KV chunk on pages of `block_tokens` positions (a
/// power of two): whole pages, never fewer than kDecodeChunkTokens.
/// Chunk i covers positions [i*chunk, (i+1)*chunk).
constexpr std::int64_t decode_chunk_tokens(std::int64_t block_tokens) {
  return std::max(kDecodeChunkTokens, block_tokens);
}

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
/// Each chunk of the row's columns (decode_chunk_tokens) that holds an
/// attended column is streamed page by page from a fresh state (m = -inf,
/// l = 0, acc = 0) with the block-wise kernel's streaming-softmax update
/// order (block max, correction, ascending-column weight sum, then the PV
/// accumulate); masked columns inside a visited page contribute exact
/// zeros there.  The chunk states then fold left in ascending chunk order:
///   m' = max(m, m_c); a = exp(m - m'); b = exp(m_c - m');
///   l = l*a + l_c*b; acc = acc*a + acc_c*b.
/// A row inside one chunk has nothing to merge, so its chain of
/// single-token decode steps is bit-identical to one full-sequence
/// block-wise pass over the same mask when block_tokens == BLOCK_N.
TensorH decode_attention_paged(std::int64_t heads, std::int64_t head_size,
                               std::span<const PagedSeq> seqs,
                               const TensorH& q);

/// Chunks of decode_chunk_tokens(block_tokens) positions that hold at least
/// one of `cols` (ascending): the split-KV warps one (row, head) runs.
std::int64_t decode_chunks(std::span<const std::int32_t> cols,
                           std::int64_t block_tokens);

/// Simulated cost of one batched paged-decode launch, which is a
/// speculative *verification* round in general: sequence s contributes
/// `seq_rows[s]` consecutive query rows (the true token plus its drafts),
/// with `valid_cols` and `row_chunks` holding the per-row attended-column
/// and decode_chunks counts flattened in the same order (sum(seq_rows) ==
/// valid_cols.size() == row_chunks.size()).  Math and q/output traffic are
/// charged per row; the grid is one warp per (row, head, chunk), four
/// warps a block.  A row split over c > 1 chunks also writes and reads
/// back c FP32 partial states per head and pays their merge FLOPs — in
/// this launch, done by the last block to finish for that (row, head).
/// KV-page DRAM traffic is charged once per sequence at the row maximum —
/// the verify rows attend nested prefixes of the same context, so rows
/// past the first are L2/SMEM hits, which is the bandwidth saving that
/// makes one k-row verification launch cheaper than k sequential decode
/// launches.  With every `seq_rows` entry 1 this is the plain batched
/// decode step's cost.
gpusim::KernelCost decode_verify_cost(std::int64_t heads,
                                      std::int64_t head_size,
                                      std::span<const std::int64_t> valid_cols,
                                      std::span<const std::int64_t> row_chunks,
                                      std::span<const std::int64_t> seq_rows,
                                      const gpusim::DeviceSpec& dev);

}  // namespace stof::mha
