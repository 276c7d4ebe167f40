// Scalar reference kernels: the test oracle of the library's kernels.
//
// Each function here is the per-element body the library kernel it is
// named after is checked against, byte for byte: FP16 operands loaded one
// element at a time, FP32 accumulation in the order the library's packed
// kernels reproduce, one half rounding per stored element.  The library
// runs one body per kernel; these bodies exist only to be compared with
// it (tests, and the scalar side of bench_tier1's timings).
//
// K/V pages are half here: the serving KV pool stores FP32 rows that are
// exact widenings of half values, so narrowing a pool page to half
// (HalfPages) loses nothing and the oracle reads what the library reads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/varlen.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/sparse/rowwise_mask.hpp"

namespace stof::oracle {

// ---- GEMM -------------------------------------------------------------------

/// ops::gemm's reference: one FP32 accumulator per output element, k
/// ascending, epilogue in FP32, one half rounding.
void gemm(const TensorH& a, const TensorH& b, TensorH& c,
          ops::Epilogue epilogue = ops::Epilogue::kNone,
          const TensorH* bias = nullptr);

/// ops::matmul2d's reference: y = x (r, k) * w (k, n), no epilogue.
void matmul2d(const TensorH& x, const TensorH& w, TensorH& y);

// ---- Block-wise MHA ------------------------------------------------------

/// Half operand views of one block-wise launch (mha::BlockwiseOperands with
/// half K/V rows).
struct BlockwiseOperands {
  mha::RowView<const half> q = {};
  mha::RowView<const half> k = {};
  mha::RowView<const half> v = {};
  mha::RowView<half> out = {};
  std::int64_t out_row0 = 0;  ///< rows below are computed but not stored
};

/// mha::blockwise_attention_rows's reference: row by row, per-element half
/// loads, the streaming softmax over the BSR's load list.
void blockwise_attention_rows(const mha::MhaDims& dims,
                              const BlockwiseOperands& io,
                              const sparse::BsrMask& mask,
                              const mha::BlockwiseParams& params,
                              const mha::ScoreMod& score_mod,
                              std::int64_t q_block_begin,
                              std::int64_t q_block_end);

/// mha::blockwise_attention's reference over padded tensors.
TensorH blockwise_attention(const mha::MhaDims& dims, const TensorH& q,
                            const TensorH& k, const TensorH& v,
                            const sparse::BsrMask& mask,
                            const mha::BlockwiseParams& params,
                            const mha::ScoreMod& score_mod = nullptr,
                            std::int64_t q_block_begin = 0,
                            std::int64_t q_block_end = -1);

/// mha::varlen_attention's reference: one element per batch entry, each
/// against its length's prefix BSR over its query window.
TensorH varlen_attention(const mha::MhaDims& dims, const TensorH& q,
                         const TensorH& k, const TensorH& v,
                         const sparse::BsrMask& base_bsr,
                         const mha::VarlenBatch& batch,
                         const mha::BlockwiseParams& params);

/// mha::rowwise_attention's reference: per-element `at()` loads.
TensorH rowwise_attention(const mha::MhaDims& dims, const TensorH& q,
                          const TensorH& k, const TensorH& v,
                          const sparse::RowwiseMask& mask);

// ---- Paged K/V -----------------------------------------------------------

/// One sequence's half KV pages (mha::PagedSeq with half blocks).
struct PagedSeq {
  std::int64_t context_len = 0;
  std::int64_t block_tokens = 0;
  std::span<const half* const> k_blocks;
  std::span<const half* const> v_blocks;
  std::span<const std::int32_t> cols;
};

/// mha::blockwise_attention_paged's reference (the serving prefill) over
/// half pages; `kv.cols` is unused.
void blockwise_attention_paged(std::int64_t heads, std::int64_t head_size,
                               const PagedSeq& kv,
                               const sparse::BsrMask& mask,
                               const mha::BlockwiseParams& params,
                               std::span<const half> q, std::int64_t q_row0,
                               std::span<half> out, std::int64_t out_row0);

/// mha::decode_attention_paged's reference over half pages.
TensorH decode_attention_paged(std::int64_t heads, std::int64_t head_size,
                               std::span<const PagedSeq> seqs,
                               const TensorH& q);

/// Half copies of FP32 pages of `page_elems` elements each, whose first
/// `valid_elems` elements (in page order) hold data; the rest read zero.
/// Narrowing is exact when every element is a widened half, as the KV
/// pool's are.
class HalfPages {
 public:
  HalfPages(std::span<const float* const> pages, std::int64_t page_elems,
            std::int64_t valid_elems);
  [[nodiscard]] std::span<const half* const> pages() const { return ptrs_; }

 private:
  std::vector<half> storage_;
  std::vector<const half*> ptrs_;
};

}  // namespace stof::oracle
