#include "stof/mha/blockwise_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
#include "stof/gpusim/occupancy.hpp"
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

/// KV-pool pages (block_tokens, heads, d): head h's rows at stride `row`.
RowView<const float> pool_rows(std::span<const float* const> pages,
                               std::int64_t page_rows, std::int64_t row,
                               std::int64_t head_size) {
  return {nullptr, pages, page_rows, 0, row, head_size};
}

/// Converts `rows` rows of instance `inst` of `src`, from row `r`, into
/// dense floats (`d` per row).  The rows must share one page.  Strided
/// rows convert one at a time through the table directly; the dispatch
/// count is recorded once per call, not once per row.
void load_rows(const RowView<const half>& src, std::int64_t inst,
               std::int64_t r, std::int64_t rows, std::int64_t d,
               float* dst) {
  const half* p = src.row(inst, r);
  const core::KernelTable& kt = core::kernels();
  if (src.ld == d) {
    kt.half_to_float(p, dst, rows * d);
    core::note_kernel_dispatch("exec.dispatch.half_to_float.calls");
    return;
  }
  for (std::int64_t j = 0; j < rows; ++j) {
    kt.half_to_float(p + j * src.ld, dst + j * d, d);
  }
  core::note_kernel_dispatch("exec.dispatch.half_to_float.calls", rows);
}

/// Rounds `rows` dense float rows to half into instance `inst` of `dst`
/// from row `r`, skipping rows below `row_min` (computed, not stored).
void store_rows(const float* src, std::int64_t rows, std::int64_t d,
                const RowView<half>& dst, std::int64_t inst, std::int64_t r,
                std::int64_t row_min) {
  const core::KernelTable& kt = core::kernels();
  const std::int64_t first = std::max<std::int64_t>(0, row_min - r);
  for (std::int64_t j = first; j < rows; ++j) {
    kt.float_to_half(src + j * d, dst.row(inst, r + j), d);
  }
  core::note_kernel_dispatch("exec.dispatch.float_to_half.calls",
                             rows - first);
}

}  // namespace

std::unique_ptr<const float[]> widen(const TensorH& t) {
  auto out = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(t.numel()));
  const std::int64_t slices = t.shape().rank() == 3 ? t.shape()[0] : 1;
  const auto slice = static_cast<std::size_t>(t.numel() / slices);
  parallel_for(0, slices, [&](std::int64_t s) {
    const auto lo = static_cast<std::size_t>(s) * slice;
    packed::half_to_float(t.data().subspan(lo, slice),
                          {out.get() + lo, slice});
  });
  return out;
}

TensorH blockwise_attention(const MhaDims& dims, const TensorH& q,
                            const TensorH& k, const TensorH& v,
                            const sparse::BsrMask& mask,
                            const BlockwiseParams& params,
                            const ScoreMod& score_mod,
                            std::int64_t q_block_begin,
                            std::int64_t q_block_end) {
  params.validate();
  STOF_EXPECTS(mask.seq_len() == dims.seq_len, "mask must match seq_len");
  TensorH out = make_output(dims, q, k, v);
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const auto kf = widen(k);
  const auto vf = widen(v);
  const BlockwiseOperands io{padded_rows(q.data().data(), n, d),
                             padded_rows(kf.get(), n, d),
                             padded_rows(vf.get(), n, d),
                             padded_rows(out.data().data(), n, d)};
  blockwise_attention_rows(dims, io, mask, params, score_mod, q_block_begin,
                           q_block_end);
  return out;
}

void blockwise_attention_paged(std::int64_t heads, std::int64_t head_size,
                               const PagedSeq& kv,
                               const sparse::BsrMask& mask,
                               const BlockwiseParams& params,
                               std::span<const half> q, std::int64_t q_row0,
                               std::span<half> out, std::int64_t out_row0) {
  params.validate();
  kv.validate(heads, head_size);
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
  // Head h of a token-major row sits h * head_size into it; K/V rows are
  // the pool's pages, block_tokens rows each.
  const BlockwiseOperands io{
      RowView<const half>{q.data(), {}, 0, q_row0, row, head_size},
      pool_rows(kv.k_blocks, kv.block_tokens, row, head_size),
      pool_rows(kv.v_blocks, kv.block_tokens, row, head_size),
      RowView<half>{out.data(), {}, 0, out_row0, row, head_size}, out_row0};
  const std::int64_t q_blocks =
      (len + params.block_m - 1) / params.block_m;
  blockwise_attention_rows(MhaDims{1, heads, len, head_size}, io, mask,
                           params, /*score_mod=*/nullptr,
                           q_row0 / params.block_m, q_blocks);
}

void blockwise_attention_rows(const MhaDims& dims, const BlockwiseOperands& io,
                              const sparse::BsrMask& mask,
                              const BlockwiseParams& params,
                              const ScoreMod& score_mod,
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

  // Block skip/load accounting is a property of the BSR mask (restricted to
  // the query window), so it is recorded once per call, not per task.
  if (telemetry::enabled()) {
    const std::int64_t instances = dims.instances();
    const std::int64_t valid =
        rows_between(mask.load_row_ptr(), q_block_begin, q_block_end);
    const std::int64_t part =
        rows_between(mask.part_row_ptr(), q_block_begin, q_block_end);
    const std::int64_t full = valid - part;
    const std::int64_t total = q_blocks * mask.cols();
    telemetry::count("sim.mha.blockwise_calls");
    telemetry::count("sim.mha.blocks_loaded", valid * instances);
    telemetry::count("sim.mha.blocks_skipped", (total - valid) * instances);
    telemetry::count("sim.mha.blocks_full", full * instances);
    telemetry::count("sim.mha.blocks_part", part * instances);
  }
  telemetry::ScopedTimer timer("wall.mha.blockwise_us");
  STOF_EXPECTS(!io.k.empty() && !io.v.empty(), "K/V rows are required");

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

    // The lane tile over row-major K/V: each query row owns one vector
    // lane, so a key block's scores, softmax update and PV accumulate
    // advance all rows of the tile at once, each row with exactly the
    // scalar reference's operation order.  A key block's FP32 rows are read
    // where they live (a tensor panel or a KV pool page).
    const core::KernelTable& ktab = core::kernels();
    const std::int64_t lanes =
        (rows + core::kLaneTileWidth - 1) / core::kLaneTileWidth *
        core::kLaneTileWidth;
    auto q_tile = arena.alloc(rows * d);
    load_rows(io.q, bh, row_lo, rows, d, q_tile.data());
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
      const std::int64_t cols = std::min(n, col_lo + bn) - col_lo;
      const std::vector<std::uint8_t>* bitmap = row_blocks.bitmap(bj);
      if (bitmap == nullptr && !score_mod) ++full_fast_blocks;
      hook.col_lo = col_lo;
      const core::LaneBlock blk{
          io.k.row(kv, col_lo), io.k.ld, io.v.row(kv, col_lo), io.v.ld,
          cols, bitmap != nullptr ? bitmap->data() : nullptr, bn, scale,
          score_mod ? &ScoreModHook::apply : nullptr, &hook};
      ktab.attn_lane_block(tile, blk);
    }
    core::note_kernel_dispatch("exec.dispatch.attn_lane_block.calls",
                               blocks);
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
    store_rows(q_tile.data(), rows, d, io.out, bh, row_lo, io.out_row0);
  });
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
  const double instances = static_cast<double>(dims.instances());
  const double d = static_cast<double>(dims.head_size);
  const double bm = p.block_m;
  const double bn = p.block_n;
  // The launch runs only the window's block rows: its valid and part
  // blocks come from the load lists, its Q read / output write from the
  // window's token rows; K/V, bitmap, and metadata traffic follow the
  // window's block population.
  const std::int64_t part_blocks =
      rows_between(mask.part_row_ptr(), q_block_begin, q_block_end);
  const double window_tokens = static_cast<double>(
      std::min(dims.seq_len, q_block_end * p.block_m) -
      q_block_begin * p.block_m);
  const double valid = static_cast<double>(
      rows_between(mask.load_row_ptr(), q_block_begin, q_block_end));
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
