#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "oracle/oracle.hpp"
#include "stof/core/exp_f32.hpp"
#include "stof/core/kernels.hpp"
#include "stof/mha/decode.hpp"
#include "stof/parallel/parallel_for.hpp"

namespace stof::oracle {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Per-task state, allocated from the worker chunk's scratch arena.
struct TaskState {
  std::span<float> m;    ///< running row maxima
  std::span<float> l;    ///< running softmax denominators
  std::span<float> acc;  ///< output accumulator, rows x d
  std::span<float> s;    ///< score / weight tile, rows x block_n
};

TaskState make_state(ScratchArena& arena, std::int64_t rows, std::int64_t d,
                     std::int64_t bn) {
  return TaskState{arena.alloc_filled(rows, kNegInf), arena.alloc_zeroed(rows),
                   arena.alloc_zeroed(rows * d), arena.alloc(rows * bn)};
}

/// KV-pool pages (block_tokens, heads, d): head h's rows at stride `row`.
mha::RowView<const half> pool_rows(std::span<const half* const> pages,
                                   std::int64_t page_rows, std::int64_t row,
                                   std::int64_t head_size) {
  return {nullptr, pages, page_rows, 0, row, head_size};
}

}  // namespace

void blockwise_attention_rows(const mha::MhaDims& dims,
                              const BlockwiseOperands& io,
                              const sparse::BsrMask& mask,
                              const mha::BlockwiseParams& params,
                              const mha::ScoreMod& score_mod,
                              std::int64_t q_block_begin,
                              std::int64_t q_block_end) {
  params.validate();
  dims.validate();
  STOF_EXPECTS(mask.seq_len() >= dims.seq_len, "mask must cover seq_len");
  STOF_EXPECTS(mask.block_m() == params.block_m &&
                   mask.block_n() == params.block_n,
               "BSR block sizes must match kernel parameters");
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const std::int64_t bm = params.block_m;
  const std::int64_t bn = params.block_n;
  const float scale = dims.scale();
  if (q_block_end < 0) q_block_end = mask.rows();
  STOF_EXPECTS(q_block_begin >= 0 && q_block_begin <= q_block_end &&
                   q_block_end <= (n + bm - 1) / bm,
               "query block window must lie within the valid rows");
  const std::int64_t q_blocks = q_block_end - q_block_begin;
  if (q_blocks == 0) return;
  const auto& load_ptr = mask.load_row_ptr();
  const auto& load_idx = mask.load_col_idx();

  parallel_for_scratch(0, dims.instances() * q_blocks, [&](std::int64_t task,
                                                           ScratchArena&
                                                               arena) {
    const std::int64_t bh = task / q_blocks;
    const std::int64_t kv = dims.kv_instance_of(bh);
    const std::int64_t bi = q_block_begin + task % q_blocks;
    const std::int64_t row_lo = bi * bm;
    const std::int64_t row_hi = std::min(n, row_lo + bm);
    const std::int64_t rows = row_hi - row_lo;

    TaskState st = make_state(arena, rows, d, bn);
    const half* q_h = io.q.row(bh, row_lo);
    sparse::BsrMask::RowBlocks row_blocks(mask, bi);
    for (std::int64_t it = load_ptr[static_cast<std::size_t>(bi)];
         it < load_ptr[static_cast<std::size_t>(bi) + 1]; ++it) {
      const std::int64_t bj = load_idx[static_cast<std::size_t>(it)];
      const std::int64_t col_lo = bj * bn;
      const std::int64_t cols = std::min(n, col_lo + bn) - col_lo;
      const std::vector<std::uint8_t>* bitmap = row_blocks.bitmap(bj);
      const half* k_h = io.k.row(kv, col_lo);
      const half* v_h = io.v.row(kv, col_lo);

      // S = (Q_i K_j^T) * scale — the first wmma tile GEMM.
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          float dot = 0;
          for (std::int64_t e = 0; e < d; ++e) {
            dot += float(q_h[r * io.q.ld + e]) * float(k_h[c * io.k.ld + e]);
          }
          float sv = dot * scale;
          if (score_mod) {
            sv = score_mod(bh, row_lo + r, col_lo + c, sv);
          }
          // Part blocks load their broadcast bitmap; full blocks skip it.
          if (bitmap != nullptr &&
              !(*bitmap)[static_cast<std::size_t>(r * bn + c)]) {
            sv = kNegInf;
          }
          st.s[static_cast<std::size_t>(r * bn + c)] = sv;
        }
      }

      // Online softmax update + PV accumulation (second tile GEMM).
      for (std::int64_t r = 0; r < rows; ++r) {
        float row_max = kNegInf;
        for (std::int64_t c = 0; c < cols; ++c) {
          row_max =
              std::max(row_max, st.s[static_cast<std::size_t>(r * bn + c)]);
        }
        if (row_max == kNegInf) continue;
        const float m_old = st.m[static_cast<std::size_t>(r)];
        const float m_new = std::max(m_old, row_max);
        const float correction =
            (st.l[static_cast<std::size_t>(r)] == 0.0f)
                ? 0.0f
                : core::exp_f32(m_old - m_new);
        float block_sum = 0;
        for (std::int64_t c = 0; c < cols; ++c) {
          const float sv = st.s[static_cast<std::size_t>(r * bn + c)];
          const float w = sv == kNegInf ? 0.0f : core::exp_f32(sv - m_new);
          st.s[static_cast<std::size_t>(r * bn + c)] = w;
          block_sum += w;
        }
        st.l[static_cast<std::size_t>(r)] =
            st.l[static_cast<std::size_t>(r)] * correction + block_sum;
        for (std::int64_t e = 0; e < d; ++e) {
          float pv = 0;
          for (std::int64_t c = 0; c < cols; ++c) {
            pv += st.s[static_cast<std::size_t>(r * bn + c)] *
                  float(v_h[c * io.v.ld + e]);
          }
          st.acc[static_cast<std::size_t>(r * d + e)] =
              st.acc[static_cast<std::size_t>(r * d + e)] * correction + pv;
        }
        st.m[static_cast<std::size_t>(r)] = m_new;
      }
    }

    // Epilogue: normalize and store. Fully masked rows emit zeros.
    for (std::int64_t r = std::max<std::int64_t>(0, io.out_row0 - row_lo);
         r < rows; ++r) {
      const float denom = st.l[static_cast<std::size_t>(r)];
      const float inv = denom == 0.0f ? 0.0f : 1.0f / denom;
      half* o = io.out.row(bh, row_lo + r);
      for (std::int64_t e = 0; e < d; ++e) {
        o[e] = half(st.acc[static_cast<std::size_t>(r * d + e)] * inv);
      }
    }
  });
}

TensorH blockwise_attention(const mha::MhaDims& dims, const TensorH& q,
                            const TensorH& k, const TensorH& v,
                            const sparse::BsrMask& mask,
                            const mha::BlockwiseParams& params,
                            const mha::ScoreMod& score_mod,
                            std::int64_t q_block_begin,
                            std::int64_t q_block_end) {
  params.validate();
  STOF_EXPECTS(mask.seq_len() == dims.seq_len, "mask must match seq_len");
  TensorH out = mha::make_output(dims, q, k, v);
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const BlockwiseOperands io{mha::padded_rows(q.data().data(), n, d),
                             mha::padded_rows(k.data().data(), n, d),
                             mha::padded_rows(v.data().data(), n, d),
                             mha::padded_rows(out.data().data(), n, d)};
  blockwise_attention_rows(dims, io, mask, params, score_mod, q_block_begin,
                           q_block_end);
  return out;
}

TensorH varlen_attention(const mha::MhaDims& dims, const TensorH& q,
                         const TensorH& k, const TensorH& v,
                         const sparse::BsrMask& base_bsr,
                         const mha::VarlenBatch& batch,
                         const mha::BlockwiseParams& params) {
  dims.validate();
  batch.validate();
  STOF_EXPECTS(batch.batch() == dims.batch && batch.seq_len == dims.seq_len);
  TensorH out = mha::make_output(dims, q, k, v);
  std::map<std::int64_t, sparse::BsrMask> bsr_by_len;
  for (const auto len : batch.lengths) {
    if (!bsr_by_len.contains(len)) {
      bsr_by_len.emplace(len, base_bsr.prefix(len));
    }
  }
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const std::int64_t kv_heads = dims.kv_head_count();
  const mha::MhaDims per_element{1, dims.heads, n, d, dims.kv_heads};
  for (std::int64_t b = 0; b < dims.batch; ++b) {
    const BlockwiseOperands io{
        mha::padded_rows(q.data().data(), n, d, b * dims.heads),
        mha::padded_rows(k.data().data(), n, d, b * kv_heads),
        mha::padded_rows(v.data().data(), n, d, b * kv_heads),
        mha::padded_rows(out.data().data(), n, d, b * dims.heads)};
    const std::int64_t len = batch.lengths[static_cast<std::size_t>(b)];
    blockwise_attention_rows(per_element, io, bsr_by_len.at(len), params,
                             /*score_mod=*/nullptr,
                             batch.q_begin(b) / params.block_m,
                             (len + params.block_m - 1) / params.block_m);
  }
  return out;
}

TensorH rowwise_attention(const mha::MhaDims& dims, const TensorH& q,
                          const TensorH& k, const TensorH& v,
                          const sparse::RowwiseMask& mask) {
  STOF_EXPECTS(mask.seq_len() == dims.seq_len, "mask must match seq_len");
  TensorH out = mha::make_output(dims, q, k, v);
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const float scale = dims.scale();

  parallel_for_scratch(0, dims.instances() * n, [&](std::int64_t row,
                                                    ScratchArena& arena) {
    const std::int64_t bh = row / n;
    const std::int64_t kv = dims.kv_instance_of(bh);
    const std::int64_t i = row % n;
    const std::int64_t lo = mask.row_ptr()[static_cast<std::size_t>(i)];
    const std::int64_t hi = mask.row_ptr()[static_cast<std::size_t>(i) + 1];
    float m = -std::numeric_limits<float>::infinity();
    float l = 0.0f;
    auto acc = arena.alloc_zeroed(d);
    for (std::int64_t p = lo; p < hi; ++p) {
      const std::int64_t j = mask.col_idx()[static_cast<std::size_t>(p)];
      float dot = 0;
      for (std::int64_t e = 0; e < d; ++e) {
        dot += float(q.at(bh, i, e)) * float(k.at(kv, j, e));
      }
      const float s = dot * scale;
      const float m_new = std::max(m, s);
      const float correction = (l == 0.0f) ? 0.0f : std::exp(m - m_new);
      const float w = std::exp(s - m_new);
      l = l * correction + w;
      for (std::int64_t e = 0; e < d; ++e) {
        acc[static_cast<std::size_t>(e)] =
            acc[static_cast<std::size_t>(e)] * correction +
            w * float(v.at(kv, j, e));
      }
      m = m_new;
    }

    if (l == 0.0f) {
      for (std::int64_t e = 0; e < d; ++e) out.at(bh, i, e) = half(0.0f);
      return;  // fully masked row
    }
    const float inv = 1.0f / l;
    for (std::int64_t e = 0; e < d; ++e) {
      out.at(bh, i, e) = half(acc[static_cast<std::size_t>(e)] * inv);
    }
  });
  return out;
}

void blockwise_attention_paged(std::int64_t heads, std::int64_t head_size,
                               const PagedSeq& kv,
                               const sparse::BsrMask& mask,
                               const mha::BlockwiseParams& params,
                               std::span<const half> q, std::int64_t q_row0,
                               std::span<half> out, std::int64_t out_row0) {
  params.validate();
  const std::int64_t len = kv.context_len;
  const std::int64_t row = heads * head_size;
  STOF_EXPECTS(kv.block_tokens == params.block_n,
               "KV page size must equal BLOCK_N");
  STOF_EXPECTS(len > 0 && mask.seq_len() >= len,
               "mask must cover the context");
  STOF_EXPECTS(q_row0 >= 0 && q_row0 % params.block_m == 0 &&
                   q_row0 <= out_row0 && out_row0 <= len,
               "query rows must start on a block row at or before the output");
  STOF_EXPECTS(static_cast<std::int64_t>(q.size()) == (len - q_row0) * row &&
                   static_cast<std::int64_t>(out.size()) ==
                       (len - out_row0) * row,
               "q/out must hold their rows token-major");
  const BlockwiseOperands io{
      mha::RowView<const half>{q.data(), {}, 0, q_row0, row, head_size},
      pool_rows(kv.k_blocks, kv.block_tokens, row, head_size),
      pool_rows(kv.v_blocks, kv.block_tokens, row, head_size),
      mha::RowView<half>{out.data(), {}, 0, out_row0, row, head_size},
      out_row0};
  const std::int64_t q_blocks = (len + params.block_m - 1) / params.block_m;
  blockwise_attention_rows(mha::MhaDims{1, heads, len, head_size}, io, mask,
                           params, /*score_mod=*/nullptr,
                           q_row0 / params.block_m, q_blocks);
}

TensorH decode_attention_paged(std::int64_t heads, std::int64_t head_size,
                               std::span<const PagedSeq> seqs,
                               const TensorH& q) {
  const std::int64_t num_seqs = static_cast<std::int64_t>(seqs.size());
  STOF_EXPECTS(num_seqs > 0, "empty decode batch");
  const Shape q_shape{num_seqs * heads, 1, head_size};
  STOF_EXPECTS(q.shape() == q_shape, "q must be (seqs*heads, 1, d)");

  TensorH out(q_shape);
  const std::int64_t d = head_size;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  parallel_for_scratch(0, num_seqs * heads, [&](std::int64_t inst,
                                                ScratchArena& arena) {
    const core::KernelTable& kt = core::kernels();
    const std::int64_t s = inst / heads;
    const std::int64_t h = inst % heads;
    const PagedSeq& seq = seqs[static_cast<std::size_t>(s)];
    const std::int64_t bt = seq.block_tokens;

    auto w_buf = arena.alloc(bt);
    auto col_buf = arena.alloc(bt);  // local offsets of attended cols

    // Stream attended columns [g, g_end) into (m, l, acc) one KV page at a
    // time with the exact per-block update order of the block-wise kernel:
    // block row-max, max-merge, correction, ascending-column weight sum,
    // then the PV accumulate over ascending columns.
    const auto stream = [&](std::size_t g, std::size_t g_end, float& m,
                            float& l, std::span<float> acc) {
      while (g < g_end) {
        const std::int64_t bj = seq.cols[g] / bt;
        const half* k_blk = seq.k_blocks[static_cast<std::size_t>(bj)];
        const half* v_blk = seq.v_blocks[static_cast<std::size_t>(bj)];
        const std::int64_t col_lo = bj * bt;

        std::int64_t nb = 0;
        for (; g < g_end && seq.cols[g] < col_lo + bt; ++g, ++nb) {
          col_buf[static_cast<std::size_t>(nb)] =
              static_cast<float>(seq.cols[g] - col_lo);
        }

        float row_max = -std::numeric_limits<float>::infinity();
        for (std::int64_t c = 0; c < nb; ++c) {
          const auto local = static_cast<std::int64_t>(
              col_buf[static_cast<std::size_t>(c)]);
          const half* k_row = k_blk + (local * heads + h) * d;
          float dot = 0;
          for (std::int64_t e = 0; e < d; ++e) {
            dot += float(q.at(inst, 0, e)) * float(k_row[e]);
          }
          w_buf[static_cast<std::size_t>(c)] = dot * scale;
          row_max = std::max(row_max, dot * scale);
        }

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

        for (std::int64_t e = 0; e < d; ++e) {
          float pvs = 0;
          for (std::int64_t c = 0; c < nb; ++c) {
            const auto local = static_cast<std::int64_t>(
                col_buf[static_cast<std::size_t>(c)]);
            pvs += w_buf[static_cast<std::size_t>(c)] *
                   float(v_blk[(local * heads + h) * d + e]);
          }
          acc[static_cast<std::size_t>(e)] =
              acc[static_cast<std::size_t>(e)] * correction + pvs;
        }
        m = m_new;
      }
    };

    // Split-KV: every chunk of decode_chunk_tokens(bt) positions holding an
    // attended column streams from a fresh state; the states fold left in
    // ascending chunk order, the first chunk streaming straight into the
    // row's state (a one-chunk row never merges).
    float m = -std::numeric_limits<float>::infinity();
    float l = 0;
    auto acc = arena.alloc_zeroed(d);
    auto chunk_acc = arena.alloc(d);
    const std::int64_t ct = mha::decode_chunk_tokens(bt);
    const std::size_t n_cols = seq.cols.size();
    std::size_t g = 0;
    while (g < n_cols) {
      const std::int64_t chunk_end = (seq.cols[g] / ct + 1) * ct;
      std::size_t g_end = g;
      while (g_end < n_cols && seq.cols[g_end] < chunk_end) ++g_end;
      if (g == 0) {
        stream(g, g_end, m, l, acc);
      } else {
        float cm = -std::numeric_limits<float>::infinity();
        float cl = 0;
        std::fill(chunk_acc.begin(), chunk_acc.end(), 0.0f);
        stream(g, g_end, cm, cl, chunk_acc);
        const float m_new = std::max(m, cm);
        const float a = core::exp_f32(m - m_new);
        const float b = core::exp_f32(cm - m_new);
        l = l * a + cl * b;
        for (std::int64_t e = 0; e < d; ++e) {
          acc[static_cast<std::size_t>(e)] =
              acc[static_cast<std::size_t>(e)] * a +
              b * chunk_acc[static_cast<std::size_t>(e)];
        }
        m = m_new;
      }
      g = g_end;
    }

    const float inv = l == 0.0f ? 0.0f : 1.0f / l;
    for (std::int64_t e = 0; e < d; ++e) {
      out.at(inst, 0, e) = half(acc[static_cast<std::size_t>(e)] * inv);
    }
  });
  return out;
}

HalfPages::HalfPages(std::span<const float* const> pages,
                     std::int64_t page_elems, std::int64_t valid_elems)
    : storage_(pages.size() * static_cast<std::size_t>(page_elems)) {
  for (std::size_t p = 0; p < pages.size(); ++p) {
    half* dst = storage_.data() + p * static_cast<std::size_t>(page_elems);
    const std::int64_t valid = std::clamp<std::int64_t>(
        valid_elems - static_cast<std::int64_t>(p) * page_elems, 0,
        page_elems);
    for (std::int64_t i = 0; i < valid; ++i) dst[i] = half(pages[p][i]);
    ptrs_.push_back(dst);
  }
}

}  // namespace stof::oracle
