#include "stof/mha/decode.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/parallel/parallel_for.hpp"

namespace stof::mha {

void PagedSeq::validate(std::int64_t heads, std::int64_t head_size) const {
  STOF_EXPECTS(heads > 0 && head_size > 0);
  STOF_EXPECTS(context_len >= 0, "context_len must be non-negative");
  STOF_EXPECTS(block_tokens >= 1 &&
                   (block_tokens & (block_tokens - 1)) == 0,
               "block_tokens must be a power of two");
  const std::int64_t need =
      (context_len + block_tokens - 1) / block_tokens;
  const auto covers = [need](const auto&... spans) {
    return ((static_cast<std::int64_t>(spans.size()) >= need) && ...);
  };
  STOF_EXPECTS(covers(k_blocks, v_blocks),
               "not enough KV blocks for context_len");
  std::int32_t prev = -1;
  for (const auto c : cols) {
    STOF_EXPECTS(c > prev, "cols must be strictly ascending");
    STOF_EXPECTS(c < context_len, "column out of context");
    prev = c;
  }
}

TensorH decode_attention_paged(std::int64_t heads, std::int64_t head_size,
                               std::span<const PagedSeq> seqs,
                               const TensorH& q) {
  const std::int64_t num_seqs = static_cast<std::int64_t>(seqs.size());
  STOF_EXPECTS(num_seqs > 0, "empty decode batch");
  for (const auto& s : seqs) s.validate(heads, head_size);
  const Shape q_shape{num_seqs * heads, 1, head_size};
  STOF_EXPECTS(q.shape() == q_shape, "q must be (seqs*heads, 1, d)");

  TensorH out(q_shape);
  const std::int64_t d = head_size;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // One task per (sequence, head) instance — each is fully independent, so
  // per-sequence outputs cannot depend on what else is in the batch.
  parallel_for_scratch(0, num_seqs * heads, [&](std::int64_t inst,
                                                ScratchArena& arena) {
    const core::KernelTable& kt = core::kernels();
    const std::int64_t s = inst / heads;
    const std::int64_t h = inst % heads;
    const PagedSeq& seq = seqs[static_cast<std::size_t>(s)];
    const std::int64_t bt = seq.block_tokens;

    auto w_buf = arena.alloc(bt);
    auto col_buf = arena.alloc(bt);  // local offsets of attended cols
    // half->float conversion is exact, so the converted query row rounds
    // identically to per-element float(half) loads.
    auto q_row = arena.alloc(d);
    packed::half_to_float(
        q.data().subspan(static_cast<std::size_t>(inst * d), q_row.size()),
        q_row);
    auto pv = arena.alloc(d);

    // Streams attended columns [g, g_end) into (m, l, acc) one KV page at a
    // time with the exact per-block update order of the block-wise kernel's
    // scalar reference: block row-max, max-merge, correction,
    // ascending-column weight sum, then the PV accumulate over ascending
    // columns.  Masked columns inside a visited page contribute w == 0
    // there, which is an exact no-op on every reduction, so within one
    // chunk the chain of decode steps reproduces a full block-wise pass
    // bit-for-bit (block_tokens must equal the kernel's BLOCK_N).
    const auto stream = [&](std::size_t g, std::size_t g_end, float& m,
                            float& l, std::span<float> acc) {
      while (g < g_end) {
        const std::int64_t bj = seq.cols[g] / bt;
        const float* k_blk = seq.k_blocks[static_cast<std::size_t>(bj)];
        const float* v_blk = seq.v_blocks[static_cast<std::size_t>(bj)];
        const std::int64_t col_lo = bj * bt;

        // Collect this page's attended locals (exact small integers,
        // stored in the float scratch arena).
        std::int64_t nb = 0;
        for (; g < g_end && seq.cols[g] < col_lo + bt; ++g, ++nb) {
          col_buf[static_cast<std::size_t>(nb)] =
              static_cast<float>(seq.cols[g] - col_lo);
        }

        // Scores for this page's attended columns: w_buf[c] = dot_c *
        // scale, row_max = max over them (exact, so the batched reduction
        // matches the scalar running max bit-for-bit).
        kt.dot_rows(q_row.data(), k_blk + h * d, heads * d, col_buf.data(),
                    w_buf.data(), nb, d);
        kt.scale_inplace(w_buf.data(), scale, nb);
        const float row_max = kt.reduce_max(w_buf.data(), nb);

        // Online-softmax merge, ascending-column weight sum (block-wise op
        // order; a page with no attended columns is never visited,
        // matching the kernel's row_max == -inf `continue`).
        const float m_new = std::max(m, row_max);
        const float correction =
            (l == 0.0f) ? 0.0f : core::exp_f32(m - m_new);
        for (std::int64_t c = 0; c < nb; ++c) {
          w_buf[static_cast<std::size_t>(c)] -= m_new;
        }
        kt.exp_row(w_buf.data(), w_buf.data(), nb);
        float block_sum = 0;
        for (std::int64_t c = 0; c < nb; ++c) {
          block_sum += w_buf[static_cast<std::size_t>(c)];
        }
        l = l * correction + block_sum;

        // PV accumulate: the page's PV vector with one axpy per ascending
        // column — per element that is the scalar reference's `pv += w_c *
        // v[e]` mul/add chain — then acc = acc*correction + 1.0*pv (alpha
        // == 1 is exact).
        std::fill(pv.begin(), pv.end(), 0.0f);
        for (std::int64_t c = 0; c < nb; ++c) {
          const auto local = static_cast<std::int64_t>(
              col_buf[static_cast<std::size_t>(c)]);
          kt.axpy(pv.data(), v_blk + (local * heads + h) * d,
                  w_buf[static_cast<std::size_t>(c)], d);
        }
        kt.axpby(acc.data(), pv.data(), correction, 1.0f, d);
        m = m_new;
      }
    };

    // Split-KV: each chunk of decode_chunk_tokens(bt) positions that holds
    // an attended column streams from a fresh state.  The first chunk's
    // state becomes the row's, and later ones fold into it in ascending
    // chunk order, so a row inside one chunk never merges and keeps the
    // single-stream op order.
    float m = -std::numeric_limits<float>::infinity();
    float l = 0;
    std::span<float> acc, part;  // the row's state; the chunk being streamed
    const std::int64_t ct = decode_chunk_tokens(bt);
    for (std::size_t g = 0; g < seq.cols.size();) {
      const auto chunk_end =
          static_cast<std::int32_t>((seq.cols[g] / ct + 1) * ct);
      const auto g_end = static_cast<std::size_t>(
          std::lower_bound(seq.cols.begin() + static_cast<std::ptrdiff_t>(g),
                           seq.cols.end(), chunk_end) -
          seq.cols.begin());
      float pm = -std::numeric_limits<float>::infinity();
      float pl = 0;
      if (part.empty()) part = arena.alloc(d);
      std::fill(part.begin(), part.end(), 0.0f);
      stream(g, g_end, pm, pl, part);
      if (acc.empty()) {
        std::swap(acc, part);
        m = pm;
        l = pl;
      } else {
        const float m_new = std::max(m, pm);
        const float a = core::exp_f32(m - m_new);
        const float b = core::exp_f32(pm - m_new);
        l = l * a + pl * b;
        kt.axpby(acc.data(), part.data(), a, b, d);
        m = m_new;
      }
      g = g_end;
    }
    if (acc.empty()) acc = arena.alloc_zeroed(d);  // no attended column

    const float inv = l == 0.0f ? 0.0f : 1.0f / l;
    kt.scale_inplace(acc.data(), inv, d);
    packed::float_to_half(
        acc, out.data().subspan(static_cast<std::size_t>(inst * d),
                                static_cast<std::size_t>(d)));
  });
  return out;
}

std::int64_t decode_chunks(std::span<const std::int32_t> cols,
                           std::int64_t block_tokens) {
  const std::int64_t ct = decode_chunk_tokens(block_tokens);
  std::int64_t chunks = 0;
  std::int64_t last = -1;
  for (const auto c : cols) {
    if (c / ct != last) {
      last = c / ct;
      ++chunks;
    }
  }
  return chunks;
}

gpusim::KernelCost decode_verify_cost(std::int64_t heads,
                                      std::int64_t head_size,
                                      std::span<const std::int64_t> valid_cols,
                                      std::span<const std::int64_t> row_chunks,
                                      std::span<const std::int64_t> seq_rows,
                                      const gpusim::DeviceSpec& dev) {
  STOF_EXPECTS(heads > 0 && head_size > 0 && !seq_rows.empty());
  STOF_EXPECTS(row_chunks.size() == valid_cols.size(),
               "one chunk count per row");
  const double d = static_cast<double>(head_size);
  const double h = static_cast<double>(heads);
  constexpr double kElem = 2.0;
  // A split row's partial state per (head, chunk): acc[d], m and l, FP32.
  const double partial_bytes = (d + 2.0) * sizeof(float);

  gpusim::KernelCost c;
  std::size_t row = 0;
  std::int64_t instances = 0;
  for (const auto rows : seq_rows) {
    STOF_EXPECTS(rows >= 1);
    std::int64_t max_valid = 0;
    for (std::int64_t j = 0; j < rows; ++j) {
      STOF_EXPECTS(row < valid_cols.size());
      const std::int64_t valid_i = valid_cols[row];
      const std::int64_t chunks = row_chunks[row++];
      STOF_EXPECTS(valid_i >= 0);
      STOF_EXPECTS(chunks <= valid_i && (chunks >= 1 || valid_i == 0),
                   "a row's chunks each hold an attended column");
      const double valid = static_cast<double>(valid_i);
      // Per-row math and q/output/column-list traffic: one warp per
      // (row, head, chunk), packed half2 CUDA-core math.
      c.cuda_flops += 0.5 * h * valid * (4.0 * d + 6.0);
      c.gmem_read_bytes += h * d * kElem + valid * sizeof(std::int32_t);
      c.gmem_write_bytes += h * d * kElem;
      max_valid = std::max(max_valid, valid_i);
      const std::int64_t split = std::max<std::int64_t>(1, chunks);
      if (split > 1) {
        // Every chunk's warp writes its FP32 partial state; the last block
        // to finish for the (row, head) reads them back and merges them in
        // this launch: per partial a rescale exp, the l update and an FP32
        // mul-mul-add per accumulator element.
        const double partials = h * static_cast<double>(split);
        c.gmem_write_bytes += partials * partial_bytes;
        c.gmem_read_bytes += partials * partial_bytes;
        c.cuda_flops += partials * (3.0 * d + 5.0);
      }
      instances += split * heads;
    }
    // KV pages stream from DRAM once per sequence (row maximum); the other
    // rows of the same sequence re-read them out of L2/SMEM.
    c.gmem_read_bytes +=
        h * 2.0 * static_cast<double>(max_valid) * d * kElem;
  }
  STOF_EXPECTS(row == valid_cols.size(),
               "seq_rows must partition valid_cols");
  const auto occ = gpusim::occupancy(dev, 0, /*num_warps=*/4);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks = (instances + 3) / 4;
  c.overlap = 0.85;  // pure streaming
  return c;
}

}  // namespace stof::mha
