// Variable-length batch attention (extension).
//
// Real inference batches mix sequences of different lengths; padding them
// to the batch maximum wastes quadratic attention work on rows and columns
// that contribute nothing (the problem ByteTransformer [65] is built
// around).  STOF's sparse machinery absorbs variable lengths naturally:
// each batch element's effective mask is the base pattern intersected with
// its valid square, and the block-sparse kernel skips the padded blocks
// like any other empty block.
//
// Callers pass the base pattern as a BSR mask analysed once (at the
// kernel's block size); each unique length's BSR is derived from it with
// BsrMask::prefix in O(blocks), so no dense effective mask is built and no
// O(seq_len^2) BSR analysis runs per call.
#pragma once

#include <vector>

#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/sparse/bsr_mask.hpp"

namespace stof::mha {

/// Per-element valid lengths of a padded batch.  A length of zero is a
/// fully padded element (every output row zero) — serving schedulers pack
/// ragged admission batches where an element can be empty.
///
/// `q_begins` (optional, empty = all zero) restricts each element to the
/// query rows in [q_begins[b], lengths[b]): the element still attends over
/// keys [0, lengths[b]) under its effective mask, but only the window's
/// rows are computed and written — the chunked-prefill primitive.  Every Q
/// block-row's streaming-softmax chain is independent, so the window's
/// output bytes equal the full call's bytes for those rows; rows outside
/// the window are zero.
struct VarlenBatch {
  std::int64_t seq_len = 0;             ///< padded length
  std::vector<std::int64_t> lengths;    ///< valid tokens per batch element
  std::vector<std::int64_t> q_begins = {};  ///< first query row per element

  [[nodiscard]] std::int64_t batch() const {
    return static_cast<std::int64_t>(lengths.size());
  }
  [[nodiscard]] std::int64_t total_valid_tokens() const {
    std::int64_t n = 0;
    for (const auto l : lengths) n += l;
    return n;
  }
  [[nodiscard]] std::int64_t q_begin(std::int64_t b) const {
    return q_begins.empty() ? 0 : q_begins[static_cast<std::size_t>(b)];
  }
  /// Fraction of padded (wasted) tokens under dense padding.
  [[nodiscard]] double padding_ratio() const {
    return 1.0 - static_cast<double>(total_valid_tokens()) /
                     static_cast<double>(batch() * seq_len);
  }
  void validate() const {
    STOF_EXPECTS(seq_len > 0 && !lengths.empty());
    STOF_EXPECTS(q_begins.empty() || q_begins.size() == lengths.size(),
                 "q_begins must be empty or match lengths");
    for (std::size_t b = 0; b < lengths.size(); ++b) {
      STOF_EXPECTS(lengths[b] >= 0 && lengths[b] <= seq_len,
                   "lengths must be in [0, seq_len]");
      if (!q_begins.empty()) {
        STOF_EXPECTS(q_begins[b] >= 0 && q_begins[b] <= lengths[b],
                     "q_begin must be in [0, length]");
      }
    }
  }
};

/// The base pattern restricted to one element's valid square:
/// mask(i, j) and i < len and j < len.  len == 0 yields the empty mask.
/// The dense reference for BsrMask::prefix: base_bsr.prefix(len) equals
/// BsrMask::build(effective_mask(base, len), ...).
masks::Mask effective_mask(const masks::Mask& base, std::int64_t len);

/// Variable-length attention: Q/K/V are padded (batch*heads, seq, d);
/// padded query rows produce zero output; padded keys are never attended.
/// Functionally equals per-element attention under each effective mask.
/// `base_bsr` is the base pattern's BSR at (params.block_m x
/// params.block_n) over dims.seq_len; each unique length runs against
/// base_bsr.prefix(len).
TensorH varlen_attention(const MhaDims& dims, const TensorH& q,
                         const TensorH& k, const TensorH& v,
                         const sparse::BsrMask& base_bsr,
                         const VarlenBatch& batch,
                         const BlockwiseParams& params = {16, 16});

/// Simulated cost: one fused kernel whose work set is the union of the
/// per-element valid blocks (lengths deduplicated — equal lengths share
/// one derived BSR, equal (length, q_begin) pairs one cost).  Same
/// `base_bsr` contract as varlen_attention.
gpusim::KernelCost varlen_cost(const MhaDims& dims,
                               const sparse::BsrMask& base_bsr,
                               const VarlenBatch& batch,
                               const BlockwiseParams& params,
                               const gpusim::DeviceSpec& dev);

}  // namespace stof::mha
