#include "stof/mha/varlen.hpp"

#include <cstring>
#include <map>
#include <optional>

#include "stof/core/packed.hpp"
#include "stof/mha/panel_cache.hpp"

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

  // Packed mode: convert the whole batch's K/V panels once (through the
  // cross-call registry, keyed on the parent tensors) and hand them to
  // every per-element blockwise call below.  Without this, each element's
  // fresh kb/vb copies would defeat the storage-identity cache and the
  // batch would reconvert per element on every call.  Shared panels index
  // kv instances of the *parent* layout, so element b's instances start at
  // b * heads — only valid when every query head has its own K/V instance.
  std::optional<KvPanelCache> batch_panels;
  if (packed_execution_enabled() &&
      dims.kv_head_count() == dims.heads) {
    batch_panels.emplace(k, v, dims.kv_instances(), dims.seq_len,
                         dims.head_size, /*transpose_k=*/true,
                         &core::global_panel_cache(), params.kv_precision);
  }

  // One single-element attention per batch entry against its own BSR.  The
  // per-element and parent tensors share the (instance, seq, elem) layout,
  // so each head's slab moves with one contiguous copy.  Elements with a
  // query window run only the block rows covering [q_begin, len); the
  // windowed rows' bytes equal the full call's (independent per-row
  // softmax chains), which is what keeps chunked prefill bit-identical.
  const MhaDims per_element{1, dims.heads, dims.seq_len, dims.head_size};
  const std::size_t inst =
      static_cast<std::size_t>(dims.seq_len * dims.head_size);
  for (std::int64_t b = 0; b < dims.batch; ++b) {
    TensorH qb(per_element.qkv_shape()), kb(per_element.qkv_shape()),
        vb(per_element.qkv_shape());
    for (std::int64_t h = 0; h < dims.heads; ++h) {
      const auto src = static_cast<std::size_t>(b * dims.heads + h) * inst;
      const auto dst = static_cast<std::size_t>(h) * inst;
      std::memcpy(&qb.data()[dst], &q.data()[src], inst * sizeof(half));
      std::memcpy(&kb.data()[dst], &k.data()[src], inst * sizeof(half));
      std::memcpy(&vb.data()[dst], &v.data()[src], inst * sizeof(half));
    }
    const std::int64_t len = batch.lengths[static_cast<std::size_t>(b)];
    const auto& bsr = bsr_by_len.at(len);
    std::int64_t qb_lo = 0;
    std::int64_t qb_hi = -1;
    if (!batch.q_begins.empty()) {
      qb_lo = batch.q_begin(b) / params.block_m;
      qb_hi = (len + params.block_m - 1) / params.block_m;
    }
    const TensorH ob = blockwise_attention(
        per_element, qb, kb, vb, bsr, params, /*score_mod=*/nullptr,
        batch_panels ? &*batch_panels : nullptr, b * dims.heads, qb_lo, qb_hi);
    for (std::int64_t h = 0; h < dims.heads; ++h) {
      const auto src = static_cast<std::size_t>(h) * inst;
      const auto dst = static_cast<std::size_t>(b * dims.heads + h) * inst;
      std::memcpy(&out.data()[dst], &ob.data()[src], inst * sizeof(half));
    }
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
  // kernel).  Windowed elements charge only their block rows — a chunk's
  // cost scales with the chunk, not the whole prompt.
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
      std::int64_t qb_lo = 0;
      std::int64_t qb_hi = -1;
      if (!batch.q_begins.empty()) {
        qb_lo = q_begin / params.block_m;
        qb_hi = (len + params.block_m - 1) / params.block_m;
      }
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
