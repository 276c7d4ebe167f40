#include "stof/mha/varlen.hpp"

#include <map>

namespace stof::mha {

masks::Mask effective_mask(const masks::Mask& base, std::int64_t len) {
  STOF_EXPECTS(len >= 0 && len <= base.seq_len());
  masks::Mask m(base.seq_len());
  for (std::int64_t i = 0; i < len; ++i) {
    for (std::int64_t j = 0; j < len; ++j) {
      if (base.at(i, j)) m.set(i, j);
    }
  }
  return m;
}

namespace {

/// Each unique length's BSR, derived from the base BSR in O(blocks) —
/// equal lengths share one.
std::map<std::int64_t, sparse::BsrMask> prefixes_by_length(
    const sparse::BsrMask& base, const VarlenBatch& batch) {
  std::map<std::int64_t, sparse::BsrMask> out;
  for (const auto len : batch.lengths) {
    if (!out.contains(len)) out.emplace(len, base.prefix(len));
  }
  return out;
}

/// Element b's query block rows: [q_begin / BLOCK_M, ceil(len / BLOCK_M)).
/// Rows past len are padding and never run; a zero-length element runs
/// none.
std::pair<std::int64_t, std::int64_t> element_window(
    const VarlenBatch& batch, std::int64_t b, const BlockwiseParams& params) {
  const std::int64_t len = batch.lengths[static_cast<std::size_t>(b)];
  return {batch.q_begin(b) / params.block_m,
          (len + params.block_m - 1) / params.block_m};
}

void expect_base_matches(const MhaDims& dims, const sparse::BsrMask& base,
                         const BlockwiseParams& params) {
  STOF_EXPECTS(base.seq_len() == dims.seq_len,
               "base BSR must match dims.seq_len");
  STOF_EXPECTS(base.block_m() == params.block_m &&
                   base.block_n() == params.block_n,
               "base BSR block sizes must match params");
}

}  // namespace

TensorH varlen_attention(const MhaDims& dims, const TensorH& q,
                         const TensorH& k, const TensorH& v,
                         const sparse::BsrMask& base_bsr,
                         const VarlenBatch& batch,
                         const BlockwiseParams& params) {
  dims.validate();
  batch.validate();
  STOF_EXPECTS(batch.batch() == dims.batch,
               "batch lengths must match dims.batch");
  STOF_EXPECTS(batch.seq_len == dims.seq_len);
  expect_base_matches(dims, base_bsr, params);
  TensorH out = make_output(dims, q, k, v);
  const auto bsr_by_len = prefixes_by_length(base_bsr, batch);

  // Element b is a view into the batch tensors: its query instances start
  // at b * heads, its K/V instances at b * kv_heads.  The whole batch's K/V
  // widen once per call and every element reads its slice.
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const std::int64_t kv_heads = dims.kv_head_count();
  const auto kf = widen(k);
  const auto vf = widen(v);

  // One single-element attention per batch entry against its own BSR, over
  // the block rows covering [q_begin, len); the window's bytes equal a
  // full call's (independent per-row softmax chains), which is what keeps
  // chunked prefill bit-identical.  Padded rows stay zero.
  const MhaDims per_element{1, dims.heads, n, d, dims.kv_heads};
  for (std::int64_t b = 0; b < dims.batch; ++b) {
    const BlockwiseOperands io{
        padded_rows(q.data().data(), n, d, b * dims.heads),
        padded_rows(kf.get(), n, d, b * kv_heads),
        padded_rows(vf.get(), n, d, b * kv_heads),
        padded_rows(out.data().data(), n, d, b * dims.heads)};
    const std::int64_t len = batch.lengths[static_cast<std::size_t>(b)];
    const auto [qb_lo, qb_hi] = element_window(batch, b, params);
    blockwise_attention_rows(per_element, io, bsr_by_len.at(len), params,
                             /*score_mod=*/nullptr, qb_lo, qb_hi);
  }
  return out;
}

gpusim::KernelCost varlen_cost(const MhaDims& dims,
                               const sparse::BsrMask& base_bsr,
                               const VarlenBatch& batch,
                               const BlockwiseParams& params,
                               const gpusim::DeviceSpec& dev) {
  dims.validate();
  batch.validate();
  STOF_EXPECTS(batch.batch() == dims.batch);
  STOF_EXPECTS(batch.seq_len == dims.seq_len);
  expect_base_matches(dims, base_bsr, params);
  const auto bsr_by_len = prefixes_by_length(base_bsr, batch);

  // Accumulate per-element work using a single-element cost each, dedup by
  // (length, query window); launch overhead is paid once (one fused varlen
  // kernel).  Each element charges only its window's block rows — a chunk's
  // cost scales with the chunk, a short element's with its length.
  std::map<std::pair<std::int64_t, std::int64_t>, gpusim::KernelCost>
      cost_by_len;
  const MhaDims per_element{1, dims.heads, dims.seq_len, dims.head_size};
  gpusim::KernelCost total;
  total.launches = 0;
  std::int64_t grid = 0;
  double occupancy = 1.0;
  int blocks_per_sm = 1;
  for (std::int64_t b = 0; b < batch.batch(); ++b) {
    const std::int64_t len = batch.lengths[static_cast<std::size_t>(b)];
    const std::int64_t q_begin = batch.q_begin(b);
    auto it = cost_by_len.find({len, q_begin});
    if (it == cost_by_len.end()) {
      const auto [qb_lo, qb_hi] = element_window(batch, b, params);
      it = cost_by_len
               .emplace(std::pair{len, q_begin},
                        blockwise_cost(per_element, bsr_by_len.at(len),
                                       params, dev, qb_lo, qb_hi))
               .first;
    }
    const auto& c = it->second;
    total.tc_flops += c.tc_flops;
    total.cuda_flops += c.cuda_flops;
    total.gmem_read_bytes += c.gmem_read_bytes;
    total.gmem_write_bytes += c.gmem_write_bytes;
    total.smem_bytes += c.smem_bytes;
    grid += c.grid_blocks;
    occupancy = c.occupancy;
    blocks_per_sm = c.blocks_per_sm;
  }
  total.launches = 1;
  total.grid_blocks = grid;
  total.occupancy = occupancy;
  total.blocks_per_sm = blocks_per_sm;
  total.bank_conflict_factor = params.padding > 0 ? 1.0 : 2.5;
  total.overlap = params.async_copy ? 0.85 : 0.5;
  return total;
}

}  // namespace stof::mha
