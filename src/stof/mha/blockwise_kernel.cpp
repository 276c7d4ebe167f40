#include "stof/mha/blockwise_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/mha/panel_cache.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::mha {

void BlockwiseParams::validate() const {
  const auto ok_block = [](int b) {
    return b >= 16 && (b & (b - 1)) == 0;  // power of two, multiple of 16
  };
  STOF_EXPECTS(ok_block(block_m) && ok_block(block_n),
               "BLOCK_M/BLOCK_N must be powers of two >= 16");
  STOF_EXPECTS(num_warps >= 1 && num_warps <= 32);
  STOF_EXPECTS(padding >= 0);
}

std::int64_t blockwise_req_smem_bytes(const BlockwiseParams& p,
                                      std::int64_t head_size) {
  // Paper Eq. 2 first line, FP16 elements -> bytes. The (2*BM + BN) term
  // covers the Q tile, the output accumulator tile, and the shared K/V
  // buffer; BM*(BN + padding) is the score tile.
  const std::int64_t w = head_size;
  const std::int64_t elems =
      (2 * static_cast<std::int64_t>(p.block_m) + p.block_n) *
          (w + p.padding) +
      static_cast<std::int64_t>(p.block_m) * (p.block_n + p.padding);
  return elems * 2;
}

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Per-task state shared by the packed and scalar task bodies, allocated
/// from the worker chunk's scratch arena (zero steady-state heap traffic).
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

/// Applies a ScoreMod to one lane group of a lane tile's scaled scores.
struct ScoreModHook {
  const ScoreMod* mod;
  std::int64_t bh;
  std::int64_t row_lo;  ///< first query row of the tile
  std::int64_t col_lo;  ///< first key column of the current block

  static void apply(void* ctx, float* s, std::int64_t ld, std::int64_t row0,
                    std::int64_t rows, std::int64_t cols) {
    const auto& h = *static_cast<const ScoreModHook*>(ctx);
    for (std::int64_t c = 0; c < cols; ++c) {
      for (std::int64_t i = 0; i < rows; ++i) {
        float& sv = s[c * ld + i];
        sv = (*h.mod)(h.bh, h.row_lo + row0 + i, h.col_lo + c, sv);
      }
    }
  }
};

/// Entries of a CSR list in block rows [begin, end).
std::int64_t rows_between(const std::vector<std::int64_t>& row_ptr,
                          std::int64_t begin, std::int64_t end) {
  return row_ptr[static_cast<std::size_t>(end)] -
         row_ptr[static_cast<std::size_t>(begin)];
}

}  // namespace

TensorH blockwise_attention(const MhaDims& dims, const TensorH& q,
                            const TensorH& k, const TensorH& v,
                            const sparse::BsrMask& mask,
                            const BlockwiseParams& params,
                            const ScoreMod& score_mod,
                            const KvPanelCache* shared_panels,
                            std::int64_t shared_kv_offset,
                            std::int64_t q_block_begin,
                            std::int64_t q_block_end) {
  params.validate();
  STOF_EXPECTS(mask.seq_len() == dims.seq_len, "mask must match seq_len");
  STOF_EXPECTS(mask.block_m() == params.block_m &&
                   mask.block_n() == params.block_n,
               "BSR block sizes must match kernel parameters");
  TensorH out = make_output(dims, q, k, v);

  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const std::int64_t bm = params.block_m;
  const std::int64_t bn = params.block_n;
  const float scale = dims.scale();
  if (q_block_end < 0) q_block_end = mask.rows();
  STOF_EXPECTS(q_block_begin >= 0 && q_block_begin <= q_block_end &&
                   q_block_end <= mask.rows(),
               "query block window must lie within the mask");
  const std::int64_t q_blocks = q_block_end - q_block_begin;
  if (q_blocks == 0) return out;
  const bool windowed = q_block_begin != 0 || q_block_end != mask.rows();

  // Block skip/load accounting is a property of the BSR mask (restricted to
  // the query window), so it is recorded once per call (not per task) and
  // is identical whichever execution path runs below.
  if (telemetry::enabled()) {
    const std::int64_t instances = dims.instances();
    std::int64_t valid = mask.valid_count();
    std::int64_t full = mask.full_count();
    std::int64_t part = mask.part_count();
    if (windowed) {
      valid = rows_between(mask.load_row_ptr(), q_block_begin, q_block_end);
      part = rows_between(mask.part_row_ptr(), q_block_begin, q_block_end);
      full = valid - part;
    }
    const std::int64_t total = q_blocks * mask.cols();
    telemetry::count("sim.mha.blockwise_calls");
    telemetry::count("sim.mha.blocks_loaded", valid * instances);
    telemetry::count("sim.mha.blocks_skipped", (total - valid) * instances);
    telemetry::count("sim.mha.blocks_full", full * instances);
    telemetry::count("sim.mha.blocks_part", part * instances);
    telemetry::count(packed_execution_enabled()
                         ? "exec.mha.blockwise.packed_calls"
                         : "exec.mha.blockwise.scalar_calls");
  }
  telemetry::ScopedTimer timer("wall.mha.blockwise_us");

  const bool use_packed = packed_execution_enabled();
  // Panel-conversion cache: every K/V instance is converted half->float at
  // most once per *mutation* — instead of once per (Q-block row, valid
  // block) visit, or even once per call: the global registry keeps panels
  // across calls keyed on the K/V tensors' storage identity and version.
  // K is transposed (d x seq) so the QK^T saxpy streams key columns
  // unit-stride; V stays row-major so PV streams V rows unit-stride.  A
  // caller that already holds panels covering these instances (the varlen
  // wrapper) passes them in; `kv_off` maps this problem's kv instances
  // into the shared cache's instance space.
  const KvPanelCache* panel_cache = shared_panels;
  std::int64_t kv_off = shared_kv_offset;
  std::optional<KvPanelCache> panels;
  if (use_packed) {
    if (panel_cache == nullptr) {
      panels.emplace(k, v, dims.kv_instances(), n, d, /*transpose_k=*/true,
                     &core::global_panel_cache(), params.kv_precision);
      panel_cache = &*panels;
      kv_off = 0;
    } else {
      STOF_EXPECTS(panel_cache->seq() == n && panel_cache->head_size() == d,
                   "shared panels must match the problem geometry");
      STOF_EXPECTS(panel_cache->precision() == params.kv_precision,
                   "shared panels must match the requested precision");
      STOF_EXPECTS(kv_off >= 0, "kv offset must be non-negative");
    }
  }
  const bool int8_kv =
      use_packed && params.kv_precision == core::PanelPrecision::kInt8;

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
    const auto q_rows = q.data().subspan(
        static_cast<std::size_t>((bh * n + row_lo) * d),
        static_cast<std::size_t>(rows * d));
    const auto out_rows = out.data().subspan(
        static_cast<std::size_t>((bh * n + row_lo) * d),
        static_cast<std::size_t>(rows * d));

    if (use_packed && !int8_kv) {
      // ---- Packed FP32 path: the lane tile over cached panels. ----
      // Each query row owns one vector lane, so a key block's scores,
      // softmax update and PV accumulate advance all rows of the tile at
      // once, each row with exactly the scalar path's operation order.
      const core::KernelTable& ktab = core::kernels();
      const float* kt = panel_cache->kt_panel(kv_off + kv);
      const float* vf = panel_cache->v_panel(kv_off + kv);
      const std::int64_t lanes =
          (rows + core::kLaneTileWidth - 1) / core::kLaneTileWidth *
          core::kLaneTileWidth;
      auto q_tile = arena.alloc(rows * d);
      packed::half_to_float(q_rows, q_tile);
      auto qt = arena.alloc_zeroed(d * lanes);
      auto acc = arena.alloc_zeroed(d * lanes);
      for (std::int64_t e = 0; e < d; ++e) {
        for (std::int64_t r = 0; r < rows; ++r) {
          qt[static_cast<std::size_t>(e * lanes + r)] =
              q_tile[static_cast<std::size_t>(r * d + e)];
        }
      }
      const core::LaneTile tile{qt.data(),
                                arena.alloc_filled(lanes, kNegInf).data(),
                                arena.alloc_zeroed(lanes).data(),
                                acc.data(),
                                arena.alloc(bn * core::kLaneTileWidth).data(),
                                rows,
                                lanes,
                                d};
      ScoreModHook hook{&score_mod, bh, row_lo, 0};
      std::int64_t blocks = 0;
      std::int64_t full_fast_blocks = 0;

      sparse::BsrMask::RowBlocks row_blocks(mask, bi);
      for (std::int64_t it = load_ptr[static_cast<std::size_t>(bi)];
           it < load_ptr[static_cast<std::size_t>(bi) + 1]; ++it, ++blocks) {
        const std::int64_t bj = load_idx[static_cast<std::size_t>(it)];
        const std::int64_t col_lo = bj * bn;
        const std::vector<std::uint8_t>* bitmap = row_blocks.bitmap(bj);
        if (bitmap == nullptr && !score_mod) ++full_fast_blocks;
        hook.col_lo = col_lo;
        ktab.attn_lane_block(
            tile, core::LaneBlock{kt + col_lo, n, vf + col_lo * d,
                                  std::min(n, col_lo + bn) - col_lo,
                                  bitmap != nullptr ? bitmap->data() : nullptr,
                                  bn, scale,
                                  score_mod ? &ScoreModHook::apply : nullptr,
                                  &hook});
      }
      core::note_kernel_dispatch("attn_lane_block", blocks);
      if (full_fast_blocks > 0) {
        telemetry::count("exec.mha.blockwise.full_fast_blocks",
                         full_fast_blocks);
      }

      // Epilogue: normalize and store (one rounding per output element),
      // back from lane-major to row-major through the Q tile's buffer.
      float* inv = tile.l;  // the denominators are dead after the last block
      for (std::int64_t r = 0; r < rows; ++r) {
        inv[r] = tile.l[r] == 0.0f ? 0.0f : 1.0f / tile.l[r];
      }
      for (std::int64_t e = 0; e < d; ++e) {
        for (std::int64_t r = 0; r < rows; ++r) {
          q_tile[static_cast<std::size_t>(r * d + e)] =
              acc[static_cast<std::size_t>(e * lanes + r)] * inv[r];
        }
      }
      packed::float_to_half(q_tile, out_rows);
      return;
    }

    TaskState st = make_state(arena, rows, d, bn);
    if (use_packed) {
      // ---- Packed INT8 tier: quantized panels, row-at-a-time softmax. ----
      const core::KernelTable& ktab = core::kernels();
      auto q_tile = arena.alloc(rows * d);
      packed::half_to_float(q_rows, q_tile);
      auto pv = arena.alloc(rows * d);
      auto corr = arena.alloc(rows);
      // Quantized Q rows (one scale per row), the block's K/V codes, and a
      // per-block weight-tile quantization buffer.  The int8 code buffers
      // live in the float arena via the always-legal signed-char aliasing
      // of its storage.
      const std::int8_t* k8t = panel_cache->kt_panel_i8(kv_off + kv);
      const std::int8_t* v8 = panel_cache->v_panel_i8(kv_off + kv);
      const float k_sc = panel_cache->k_scale(kv_off + kv);
      const float v_sc = panel_cache->v_scale(kv_off + kv);
      auto* q8 = reinterpret_cast<std::int8_t*>(
          arena.alloc((rows * d + 3) / 4).data());
      auto q_scales = arena.alloc(rows);
      packed::quantize_floats(q_tile.data(), rows * d, d, q8, q_scales.data());
      auto* w8 = reinterpret_cast<std::int8_t*>(
          arena.alloc((rows * bn + 3) / 4).data());
      auto w_scales = arena.alloc(rows);
      std::int64_t full_fast_blocks = 0;

      sparse::BsrMask::RowBlocks row_blocks(mask, bi);
      for (std::int64_t it = load_ptr[static_cast<std::size_t>(bi)];
           it < load_ptr[static_cast<std::size_t>(bi) + 1]; ++it) {
        const std::int64_t bj = load_idx[static_cast<std::size_t>(it)];
        const std::int64_t col_lo = bj * bn;
        const std::int64_t col_hi = std::min(n, col_lo + bn);
        const std::int64_t cols = col_hi - col_lo;
        const std::vector<std::uint8_t>* bitmap = row_blocks.bitmap(bj);

        // S = (Q_i K_j^T) in exact int32 dot products with a float
        // epilogue, into a zeroed score window.
        for (std::int64_t r = 0; r < rows; ++r) {
          std::fill_n(st.s.data() + r * bn, cols, 0.0f);
        }
        core::note_kernel_dispatch("sgemm_i8_accumulate_ld");
        ktab.sgemm_i8_accumulate_ld(q8, d, k8t + col_lo, n, st.s.data(), bn,
                                    rows, d, cols, q_scales.data(), k_sc);
        const bool full_fast = bitmap == nullptr && !score_mod;
        if (full_fast) {
          // Full-block fast path: plain unit-stride scaling, no per-element
          // bitmap or score-mod branches.
          ++full_fast_blocks;
          for (std::int64_t r = 0; r < rows; ++r) {
            ktab.scale_inplace(st.s.data() + r * bn, scale, cols);
          }
        } else if (!score_mod) {
          // Part block without a score-mod (the common sparse case): the
          // bitmap apply is a branch-free select, vectorizable.
          const std::uint8_t* bits = bitmap->data();
          for (std::int64_t r = 0; r < rows; ++r) {
            float* s_row = st.s.data() + r * bn;
            const std::uint8_t* b_row = bits + r * bn;
            for (std::int64_t c = 0; c < cols; ++c) {
              s_row[c] = b_row[c] ? s_row[c] * scale : kNegInf;
            }
          }
        } else {
          for (std::int64_t r = 0; r < rows; ++r) {
            float* s_row = st.s.data() + r * bn;
            for (std::int64_t c = 0; c < cols; ++c) {
              float sv = score_mod(bh, row_lo + r, col_lo + c,
                                   s_row[c] * scale);
              if (bitmap != nullptr &&
                  !(*bitmap)[static_cast<std::size_t>(r * bn + c)]) {
                sv = kNegInf;
              }
              s_row[c] = sv;
            }
          }
        }

        // Online softmax: update per-row state and turn scores into
        // weights in place.  Rows are independent, so splitting the weight
        // pass from the PV tile GEMM below reorders nothing within any
        // output element's accumulation chain.
        for (std::int64_t r = 0; r < rows; ++r) {
          float* s_row = st.s.data() + r * bn;
          // max is exact, so the vectorized reduction matches the scalar
          // running max bit-for-bit.
          const float row_max = ktab.reduce_max(s_row, cols);
          if (row_max == kNegInf) {
            corr[static_cast<std::size_t>(r)] = -1.0f;  // fully masked row
            continue;
          }
          const float m_old = st.m[static_cast<std::size_t>(r)];
          const float m_new = std::max(m_old, row_max);
          const float correction =
              (st.l[static_cast<std::size_t>(r)] == 0.0f)
                  ? 0.0f
                  : core::exp_f32(m_old - m_new);
          // Masked scores stay -inf after the shift, and exp_row maps
          // them to the scalar path's explicit 0.
          for (std::int64_t c = 0; c < cols; ++c) s_row[c] -= m_new;
          ktab.exp_row(s_row, s_row, cols);
          float block_sum = 0;
          for (std::int64_t c = 0; c < cols; ++c) block_sum += s_row[c];
          st.l[static_cast<std::size_t>(r)] =
              st.l[static_cast<std::size_t>(r)] * correction + block_sum;
          corr[static_cast<std::size_t>(r)] = correction;
          st.m[static_cast<std::size_t>(r)] = m_new;
        }

        // PV: quantize the weight tile per row (valid cols only — the tail
        // of each bn-row is stale scratch).  Fully masked rows still hold
        // raw -inf scores; their PV contribution is discarded at the merge
        // below, so emit zero codes instead of quantizing -inf.
        std::fill_n(pv.data(), rows * d, 0.0f);
        for (std::int64_t r = 0; r < rows; ++r) {
          if (corr[static_cast<std::size_t>(r)] < 0.0f) {
            w_scales[static_cast<std::size_t>(r)] = 0.0f;
            std::memset(w8 + r * bn, 0, static_cast<std::size_t>(cols));
            continue;
          }
          const float* s_row = st.s.data() + r * bn;
          const auto qp = core::quant_params(ktab.abs_max(s_row, cols));
          w_scales[static_cast<std::size_t>(r)] = qp.scale;
          ktab.quantize_i8(s_row, w8 + r * bn, cols, qp.inv_scale);
        }
        core::note_kernel_dispatch("sgemm_i8_accumulate_ld");
        ktab.sgemm_i8_accumulate_ld(w8, bn, v8 + col_lo * d, d, pv.data(), d,
                                    rows, cols, d, w_scales.data(), v_sc);
        for (std::int64_t r = 0; r < rows; ++r) {
          const float c_r = corr[static_cast<std::size_t>(r)];
          if (c_r < 0.0f) continue;
          ktab.axpby(st.acc.data() + r * d, pv.data() + r * d, c_r, 1.0f, d);
        }
      }
      if (full_fast_blocks > 0) {
        telemetry::count("exec.mha.blockwise.full_fast_blocks",
                         full_fast_blocks);
      }

      // Epilogue: normalize and store (one rounding per output element).
      for (std::int64_t r = 0; r < rows; ++r) {
        const float denom = st.l[static_cast<std::size_t>(r)];
        const float inv = denom == 0.0f ? 0.0f : 1.0f / denom;
        ktab.scale_inplace(st.acc.data() + r * d, inv, d);
      }
      packed::float_to_half(st.acc, out_rows);
      return;
    }

    // ---- Scalar reference path: per-element conversions via at(). ----
    sparse::BsrMask::RowBlocks row_blocks(mask, bi);
    for (std::int64_t it = load_ptr[static_cast<std::size_t>(bi)];
         it < load_ptr[static_cast<std::size_t>(bi) + 1]; ++it) {
      const std::int64_t bj = load_idx[static_cast<std::size_t>(it)];
      const std::int64_t col_lo = bj * bn;
      const std::int64_t col_hi = std::min(n, col_lo + bn);
      const std::int64_t cols = col_hi - col_lo;
      const std::vector<std::uint8_t>* bitmap = row_blocks.bitmap(bj);

      // S = (Q_i K_j^T) * scale — the first wmma tile GEMM.
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          float dot = 0;
          for (std::int64_t e = 0; e < d; ++e) {
            dot += float(q.at(bh, row_lo + r, e)) *
                   float(k.at(kv, col_lo + c, e));
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
                  float(v.at(kv, col_lo + c, e));
          }
          st.acc[static_cast<std::size_t>(r * d + e)] =
              st.acc[static_cast<std::size_t>(r * d + e)] * correction + pv;
        }
        st.m[static_cast<std::size_t>(r)] = m_new;
      }
    }

    // Epilogue: normalize and store. Fully masked rows emit zeros.
    for (std::int64_t r = 0; r < rows; ++r) {
      const float denom = st.l[static_cast<std::size_t>(r)];
      const float inv = denom == 0.0f ? 0.0f : 1.0f / denom;
      for (std::int64_t e = 0; e < d; ++e) {
        out.at(bh, row_lo + r, e) =
            half(st.acc[static_cast<std::size_t>(r * d + e)] * inv);
      }
    }
  });
  return out;
}

gpusim::KernelCost blockwise_cost(const MhaDims& dims,
                                  const sparse::BsrMask& mask,
                                  const BlockwiseParams& p,
                                  const gpusim::DeviceSpec& dev,
                                  std::int64_t q_block_begin,
                                  std::int64_t q_block_end) {
  p.validate();
  dims.validate();
  if (q_block_end < 0) q_block_end = mask.rows();
  STOF_EXPECTS(q_block_begin >= 0 && q_block_begin <= q_block_end &&
                   q_block_end <= mask.rows(),
               "query block window must lie within the mask");
  const bool windowed = q_block_begin != 0 || q_block_end != mask.rows();
  const double instances = static_cast<double>(dims.instances());
  const double d = static_cast<double>(dims.head_size);
  const double bm = p.block_m;
  const double bn = p.block_n;
  std::int64_t valid_blocks = mask.valid_count();
  std::int64_t part_blocks = mask.part_count();
  // A windowed launch runs only the window's block rows: count its valid
  // and part blocks from the load lists.  Its Q read / output write shrink
  // to the window's token rows; K/V, bitmap, and metadata traffic follow
  // the windowed block population.
  if (windowed) {
    valid_blocks =
        rows_between(mask.load_row_ptr(), q_block_begin, q_block_end);
    part_blocks =
        rows_between(mask.part_row_ptr(), q_block_begin, q_block_end);
  }
  const double window_tokens =
      windowed ? static_cast<double>(
                     std::min(dims.seq_len, q_block_end * p.block_m) -
                     q_block_begin * p.block_m)
               : static_cast<double>(dims.seq_len);
  const double valid = static_cast<double>(valid_blocks);
  // Only part blocks pay the bitmap apply; full blocks take the mask-free
  // fast path (BsrMask classifies a block kFull iff every in-range element
  // is valid, so `part_count` is exactly the bitmap-loading population).
  const double part =
      p.treat_full_as_part ? valid : static_cast<double>(part_blocks);
  constexpr double kElem = 2.0;

  gpusim::KernelCost c;
  // Two tile GEMMs per valid block on tensor cores: QK^T and PV.
  c.tc_flops = instances * valid * (2.0 * bm * bn * d) * 2.0;
  // Softmax bookkeeping on CUDA cores; part blocks add the mask apply.
  c.cuda_flops = instances * (valid * bm * bn * 6.0 + part * bm * bn);

  // Loads: Q once; K and V tiles once per valid block in the Q-block's
  // row; part bitmaps are deduplicated in memory, so repeated bitmaps hit
  // L2 and DRAM sees each unique bitmap once per instance.
  const double kv_share = static_cast<double>(dims.kv_head_count()) /
                          static_cast<double>(dims.heads);
  const double kv_tiles = instances * valid * bn * d * kElem * 2.0;
  const double kv_dram = kv_tiles * kv_share;  // groups share K/V via L2
  const double unique_bitmap_bytes =
      (p.treat_full_as_part
           ? valid
           : std::min(static_cast<double>(mask.unique_part_masks()), part)) *
      bm * bn;
  // Metadata: the stored column lists and bitmaps, but the three row-
  // pointer arrays only over the block rows this launch runs — a window
  // (or a short varlen element) never reads the pointers of rows past it.
  constexpr std::size_t kRowPtrBytes = 3 * sizeof(std::int64_t);
  const double metadata_bytes = static_cast<double>(
      mask.storage_bytes() -
      kRowPtrBytes * static_cast<std::size_t>(
                         mask.rows() - (q_block_end - q_block_begin)));
  c.gmem_read_bytes = instances * window_tokens * d * kElem +
                      kv_dram + instances * unique_bitmap_bytes +
                      metadata_bytes;
  c.gmem_write_bytes = instances * window_tokens * d * kElem;

  // SMEM traffic: every loaded tile is written to and read from shared
  // memory; scores make one extra round trip for the softmax pass.
  c.smem_bytes = 2.0 * kv_tiles +
                 2.0 * instances * valid * bm * bn * kElem;
  c.bank_conflict_factor = p.padding > 0 ? 1.0 : 2.5;

  const auto occ =
      gpusim::occupancy(dev, blockwise_req_smem_bytes(p, dims.head_size),
                        p.num_warps);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks = dims.instances() * (q_block_end - q_block_begin);
  c.overlap = p.async_copy ? 0.85 : 0.5;
  return c;
}

}  // namespace stof::mha
