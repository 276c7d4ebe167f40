// Runtime-dispatched CPU micro-kernel table.
//
// The packed execution layer's hot inner loops — half<->float panel
// conversion, the saxpy-tile GEMM accumulators, the decode-attention
// dot/axpy primitives, the softmax exp, and the block-wise kernel's
// lane-per-row softmax tile — live behind a `KernelTable` of function
// pointers.  At startup the best instruction set the host supports is
// detected (AVX-512F/BW > AVX2+F16C+FMA > NEON > scalar) and the matching
// table is
// installed; `STOF_FORCE_SCALAR=1` in the environment pins the scalar
// reference table regardless of hardware.
//
// Bit-identity contract: every SIMD implementation must produce outputs
// byte-identical to the scalar table.  The scalar loops are the reference
// semantics; SIMD variants vectorize only across *independent* outputs
// (columns of C, separate dot products) and keep each output's reduction
// strictly serial in ascending depth order with separate multiply and add
// steps (SIMD translation units are compiled with -ffp-contract=off so the
// compiler cannot fuse them).  The lane tile vectorizes across query rows:
// each row's softmax state lives in its own lane and runs the scalar op
// sequence.  `exp_row` evaluates `exp_f32`'s double-precision steps with
// the same fused operations in every lane.  kernel_dispatch_test diffs
// every table entry byte-wise against the scalar table for every ISA the
// host can run.
//
// Operands are stored as half; every arithmetic entry accumulates in FP32.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/exp_f32.hpp"
#include "stof/core/half.hpp"

namespace stof::core {

/// Instruction sets the dispatcher can select, in preference order.
enum class Isa : int { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

[[nodiscard]] const char* isa_name(Isa isa);

/// Widest lane group of the lane tile (AVX-512: 16 FP32 lanes).  A tile's
/// row stride is its row count rounded up to this.
inline constexpr std::int64_t kLaneTileWidth = 16;

/// Online-softmax state of one block-wise query tile in lane-major layout:
/// element (e, r) of a d x rows matrix lives at [e * lanes + r], so each
/// query row owns one SIMD lane.
struct LaneTile {
  const float* qt;     ///< Q^T, d x lanes; lanes past `rows` hold zeros
  float* m;            ///< running row maxima (start at -inf), lanes
  float* l;            ///< running denominators (start at 0), lanes
  float* acc;          ///< output accumulator (starts at 0), d x lanes
  float* s;            ///< score scratch, >= block_n x kLaneTileWidth
  std::int64_t rows;   ///< query rows in the tile
  std::int64_t lanes;  ///< row stride: rows rounded up to kLaneTileWidth
  std::int64_t d;      ///< head size
};

/// Optional scalar pass over one lane group's scaled scores, run before
/// the mask: s[c * ld + i] is the score of tile row `row0 + i` against
/// block column c, for i < rows and c < cols.
using LaneScoreHook = void (*)(void* ctx, float* s, std::int64_t ld,
                               std::int64_t row0, std::int64_t rows,
                               std::int64_t cols);

/// One key block visited by a lane tile.  K and V are read where they
/// live: row-major, each with its own row stride, so a padded tensor panel
/// (stride d) and a KV-pool page (stride heads * d) are the same view.
struct LaneBlock {
  const float* k;       ///< the block's K rows (key c: k + c*ldk, d floats)
  std::int64_t ldk;     ///< K row stride, >= d
  const float* v;       ///< the block's V rows (key c: v + c*ldv, d floats)
  std::int64_t ldv;     ///< V row stride, >= d
  std::int64_t cols;    ///< key columns in the block, <= ld_bits
  const std::uint8_t* bits;  ///< 0/1 part bitmap (row r: bits + r*ld_bits)
                             ///< with `lanes` rows; nullptr = full block
  std::int64_t ld_bits;      ///< bitmap row stride: BLOCK_N (power of 2, >= 16)
  float scale;               ///< softmax scale applied to every score
  LaneScoreHook hook;        ///< score modifier, or nullptr
  void* hook_ctx;
};

/// One table of micro-kernel entry points.  All pointers are always
/// non-null (ISA-specific tables inherit the scalar entry for anything
/// they do not override).
struct KernelTable {
  Isa isa = Isa::kScalar;

  // ---- Panel conversion ----------------------------------------------------
  /// dst[i] = float(src[i]) — exact (matches the 65536-entry h2f table).
  void (*half_to_float)(const half* src, float* dst, std::int64_t n);
  /// dst[i] = half(src[i]) — round-to-nearest-even, NaNs canonicalized
  /// exactly like half::from_float.
  void (*float_to_half)(const float* src, half* dst, std::int64_t n);

  // ---- FP32 GEMM accumulation ---------------------------------------------
  /// C += A x B, contiguous row-major panels (see packed::sgemm_accumulate).
  void (*sgemm_accumulate)(const float* a, const float* b, float* c,
                           std::int64_t rows, std::int64_t k, std::int64_t n);

  // ---- Decode / softmax primitives ----------------------------------------
  /// out[i] = dot(q, row_i) where row_i = base + (idx ? idx[i] : i) * stride.
  /// idx entries are small non-negative integers stored exactly in floats
  /// (the decode scratch arenas are float-typed).  Each dot is one serial
  /// FP32 chain in ascending element order (the scalar decode semantics);
  /// implementations may only parallelize across the independent output
  /// rows.
  void (*dot_rows)(const float* q, const float* base, std::int64_t stride,
                   const float* idx, float* out, std::int64_t count,
                   std::int64_t d);
  /// y[i] += a * x[i] (one multiply, one add per element).
  void (*axpy)(float* y, const float* x, float a, std::int64_t n);
  /// y[i] = y[i] * beta + alpha * x[i] — the streaming-softmax merge.
  /// alpha == 1.0f makes the alpha*x product exact, matching a plain
  /// `y = y*beta + x` merge bit for bit.
  void (*axpby)(float* y, const float* x, float beta, float alpha,
                std::int64_t n);
  /// x[i] *= s.
  void (*scale_inplace)(float* x, float s, std::int64_t n);
  /// max(x[0..n)) — exact, so any reduction order is bit-safe; n >= 1.
  float (*reduce_max)(const float* x, std::int64_t n);
  /// y[i] = exp_f32(x[i]) (x <= 0 or -inf); x and y may alias.
  void (*exp_row)(const float* x, float* y, std::int64_t n);

  // ---- Block-wise lane tile ------------------------------------------------
  /// Advance every row of `tile` by one key block of the streaming
  /// softmax, each row in its own lane:
  ///   S[c] = (sum_e q[e]*k[c][e], from 0.0f over ascending e) * scale;
  ///   hook (if any); S[c] = -inf where the bitmap bit is 0;
  ///   mx = max_c S[c]; rows with mx == -inf leave m, l, acc untouched;
  ///   m' = max(m, mx); corr = l == 0 ? 0 : exp_f32(m - m');
  ///   w[c] = exp_f32(S[c] - m'); l = l*corr + (sum_c w[c], ascending);
  ///   acc[e] = acc[e]*corr + (sum_c w[c]*v[c][e], from 0 ascending); m = m'.
  /// These are the block-wise kernel's per-row semantics, so every row's
  /// values round exactly as a row-at-a-time loop would.
  void (*attn_lane_block)(const LaneTile& tile, const LaneBlock& block);

};

/// The scalar reference table (always available).
[[nodiscard]] const KernelTable& scalar_kernel_table();

/// True when `isa`'s table can run on this host.
[[nodiscard]] bool isa_available(Isa isa);

/// Every ISA the host can run, scalar first, best last.
[[nodiscard]] std::vector<Isa> available_isas();

/// The table for `isa`; requires isa_available(isa).
[[nodiscard]] const KernelTable& kernel_table_for(Isa isa);

/// Best hardware-supported ISA, honoring the STOF_FORCE_SCALAR=1 override
/// (read once at first use).
[[nodiscard]] Isa best_supported_isa();

/// The active dispatch table (defaults to best_supported_isa()).
[[nodiscard]] const KernelTable& kernels();

/// ISA of the active table.
[[nodiscard]] Isa active_isa();

/// Re-points the active table for its scope (tests / cross-ISA harnesses
/// only) and restores the previous one on exit.  Requires
/// isa_available(isa).
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(Isa isa);
  ~ScopedKernelIsa();
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  Isa previous_;
};

/// Telemetry hook for dispatched call sites: records the active ISA under
/// the `exec.dispatch.isa` gauge and bumps `counter`, the entry's full
/// counter name as a literal (`"exec.dispatch.<entry>.calls"`), so no call
/// formats a string.
void note_kernel_dispatch(const char* counter, std::int64_t calls = 1);

}  // namespace stof::core
