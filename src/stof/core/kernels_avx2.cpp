// AVX2 + F16C + FMA micro-kernels (compiled with -mavx2 -mf16c -mfma
// -ffp-contract=off).
//
// Bit-identity: every FP32 kernel keeps each output element's reduction
// strictly serial in ascending depth order, with one multiply and one add
// per step (no FMA — this TU disables contraction).  SIMD lanes span only
// independent output columns, which the scalar reference explicitly
// licenses.  Accumulator tiles live in registers across the whole depth
// loop; a register add sequence rounds identically to the scalar
// load/add/store sequence, so outputs stay byte-equal to the scalar table.
//
// F16C notes: vcvtph2ps is exact (bit-equal to the h2f table, including
// NaN payloads and subnormals).  vcvtps2ph rounds to nearest-even like
// half::from_float for every non-NaN input, but preserves NaN payloads
// where from_float canonicalizes them — the conversion loop detects NaN
// lanes (rare) and re-converts those through half::from_float.
//
// FMA is used only where the scalar reference spells out std::fma: the
// double-precision steps of exp_f32.  The lane tile puts one query row in
// each of the 8 lanes of a group.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"

namespace stof::core::detail {
namespace {

void half_to_float_avx2(const half* src, float* dst, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  const float* table = packed::h2f_table();
  for (; i < n; ++i) dst[i] = table[src[i].bits()];
}

void float_to_half_avx2(const float* src, half* dst, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
    const __m256 unord = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(unord) != 0) {
      alignas(16) std::uint16_t lanes[8];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), h);
      for (int l = 0; l < 8; ++l) {
        const float f = src[i + l];
        if (f != f) lanes[l] = half::from_float(f);
      }
      h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = half::from_bits(half::from_float(src[i]));
}

// 4-row x 16-column FP32 register tile: accumulators stay in ymm across
// the whole depth loop, one B-row pair of loads feeds four rows.
inline void tile_4x16(const float* a0, const float* a1, const float* a2,
                      const float* a3, const float* b, std::int64_t ldb,
                      float* c0, float* c1, float* c2, float* c3,
                      std::int64_t depth) {
  __m256 acc00 = _mm256_loadu_ps(c0), acc01 = _mm256_loadu_ps(c0 + 8);
  __m256 acc10 = _mm256_loadu_ps(c1), acc11 = _mm256_loadu_ps(c1 + 8);
  __m256 acc20 = _mm256_loadu_ps(c2), acc21 = _mm256_loadu_ps(c2 + 8);
  __m256 acc30 = _mm256_loadu_ps(c3), acc31 = _mm256_loadu_ps(c3 + 8);
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const __m256 b0 = _mm256_loadu_ps(br);
    const __m256 b1 = _mm256_loadu_ps(br + 8);
    __m256 av = _mm256_set1_ps(a0[e]);
    acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
    acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(a1[e]);
    acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
    acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(a2[e]);
    acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
    acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(a3[e]);
    acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
    acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
  }
  _mm256_storeu_ps(c0, acc00);
  _mm256_storeu_ps(c0 + 8, acc01);
  _mm256_storeu_ps(c1, acc10);
  _mm256_storeu_ps(c1 + 8, acc11);
  _mm256_storeu_ps(c2, acc20);
  _mm256_storeu_ps(c2 + 8, acc21);
  _mm256_storeu_ps(c3, acc30);
  _mm256_storeu_ps(c3 + 8, acc31);
}

inline void tile_4x8(const float* a0, const float* a1, const float* a2,
                     const float* a3, const float* b, std::int64_t ldb,
                     float* c0, float* c1, float* c2, float* c3,
                     std::int64_t depth) {
  __m256 acc0 = _mm256_loadu_ps(c0);
  __m256 acc1 = _mm256_loadu_ps(c1);
  __m256 acc2 = _mm256_loadu_ps(c2);
  __m256 acc3 = _mm256_loadu_ps(c3);
  for (std::int64_t e = 0; e < depth; ++e) {
    const __m256 bv = _mm256_loadu_ps(b + e * ldb);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(a0[e]), bv));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(a1[e]), bv));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(a2[e]), bv));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(a3[e]), bv));
  }
  _mm256_storeu_ps(c0, acc0);
  _mm256_storeu_ps(c1, acc1);
  _mm256_storeu_ps(c2, acc2);
  _mm256_storeu_ps(c3, acc3);
}

inline void tile_1x16(const float* ar, const float* b, std::int64_t ldb,
                      float* cr, std::int64_t depth) {
  __m256 acc0 = _mm256_loadu_ps(cr);
  __m256 acc1 = _mm256_loadu_ps(cr + 8);
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const __m256 av = _mm256_set1_ps(ar[e]);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(br)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(br + 8)));
  }
  _mm256_storeu_ps(cr, acc0);
  _mm256_storeu_ps(cr + 8, acc1);
}

inline void tile_1x8(const float* ar, const float* b, std::int64_t ldb,
                     float* cr, std::int64_t depth) {
  __m256 acc = _mm256_loadu_ps(cr);
  for (std::int64_t e = 0; e < depth; ++e) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_set1_ps(ar[e]), _mm256_loadu_ps(b + e * ldb)));
  }
  _mm256_storeu_ps(cr, acc);
}

/// Scalar column tail: per element, one serial ascending-depth chain.
inline void tile_cols_scalar(const float* a, std::int64_t lda, const float* b,
                             std::int64_t ldb, float* c, std::int64_t ldc,
                             std::int64_t rows, std::int64_t depth,
                             std::int64_t j_lo, std::int64_t j_hi) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* cr = c + r * ldc;
    for (std::int64_t j = j_lo; j < j_hi; ++j) {
      float s = cr[j];
      for (std::int64_t e = 0; e < depth; ++e) s += ar[e] * b[e * ldb + j];
      cr[j] = s;
    }
  }
}

void sgemm_accumulate_ld_avx2(const float* a, std::int64_t lda, const float* b,
                              std::int64_t ldb, float* c, std::int64_t ldc,
                              std::int64_t rows, std::int64_t depth,
                              std::int64_t cols) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* a0 = a + (r + 0) * lda;
    const float* a1 = a + (r + 1) * lda;
    const float* a2 = a + (r + 2) * lda;
    const float* a3 = a + (r + 3) * lda;
    float* c0 = c + (r + 0) * ldc;
    float* c1 = c + (r + 1) * ldc;
    float* c2 = c + (r + 2) * ldc;
    float* c3 = c + (r + 3) * ldc;
    std::int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      tile_4x16(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
                depth);
    }
    for (; j + 8 <= cols; j += 8) {
      tile_4x8(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
               depth);
    }
    if (j < cols) {
      tile_cols_scalar(a + r * lda, lda, b, ldb, c + r * ldc, ldc, 4, depth, j,
                       cols);
    }
  }
  for (; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* cr = c + r * ldc;
    std::int64_t j = 0;
    for (; j + 16 <= cols; j += 16) tile_1x16(ar, b + j, ldb, cr + j, depth);
    for (; j + 8 <= cols; j += 8) tile_1x8(ar, b + j, ldb, cr + j, depth);
    if (j < cols) {
      tile_cols_scalar(ar, lda, b, ldb, cr, ldc, 1, depth, j, cols);
    }
  }
}

void sgemm_accumulate_avx2(const float* a, const float* b, float* c,
                           std::int64_t rows, std::int64_t k, std::int64_t n) {
  // Same kNB/kKB cache blocking as the scalar reference (the k0/ki split
  // keeps k strictly ascending per output element); within a block the
  // register tiles accumulate across the whole kw without touching C.
  constexpr std::int64_t kNB = 256;
  constexpr std::int64_t kKB = 128;
  for (std::int64_t n0 = 0; n0 < n; n0 += kNB) {
    const std::int64_t nw = std::min(kNB, n - n0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKB) {
      const std::int64_t kw = std::min(kKB, k - k0);
      sgemm_accumulate_ld_avx2(a + k0, k, b + k0 * n + n0, n, c + n0, n, rows,
                               kw, nw);
    }
  }
}

void dot_rows_avx2(const float* q, const float* base, std::int64_t stride,
                   const float* idx, float* out, std::int64_t count,
                   std::int64_t d) {
  // Four interleaved serial chains: each output keeps its strictly serial
  // ascending-e accumulation (bit-identical to the scalar reference); the
  // independent chains hide the FP add latency.
  const auto row_at = [&](std::int64_t i) {
    const std::int64_t r =
        idx != nullptr ? static_cast<std::int64_t>(idx[i]) : i;
    return base + r * stride;
  };
  std::int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r0 = row_at(i + 0);
    const float* r1 = row_at(i + 1);
    const float* r2 = row_at(i + 2);
    const float* r3 = row_at(i + 3);
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (std::int64_t e = 0; e < d; ++e) {
      const float qe = q[e];
      s0 += qe * r0[e];
      s1 += qe * r1[e];
      s2 += qe * r2[e];
      s3 += qe * r3[e];
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < count; ++i) {
    const float* row = row_at(i);
    float acc = 0.0f;
    for (std::int64_t e = 0; e < d; ++e) acc += q[e] * row[e];
    out[i] = acc;
  }
}

void axpy_avx2(float* y, const float* x, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), t));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void axpby_avx2(float* y, const float* x, float beta, float alpha,
                std::int64_t n) {
  const __m256 vb = _mm256_set1_ps(beta);
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(y + i), vb);
    const __m256 u = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(t, u));
  }
  for (; i < n; ++i) y[i] = y[i] * beta + alpha * x[i];
}

void scale_inplace_avx2(float* x, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

float reduce_max_avx2(const float* x, std::int64_t n) {
  // max is exact, so the tree reduction matches any serial order.
  std::int64_t i = 0;
  float m;
  if (n >= 8) {
    __m256 acc = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
    }
    __m128 q = _mm_max_ps(_mm256_castps256_ps128(acc),
                          _mm256_extractf128_ps(acc, 1));
    q = _mm_max_ps(q, _mm_movehl_ps(q, q));
    q = _mm_max_ss(q, _mm_movehdup_ps(q));
    m = _mm_cvtss_f32(q);
  } else {
    m = x[0];
    i = 1;
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

// ---- exp_f32 and the lane tile ---------------------------------------------

/// exp_f32 on four lanes: the scalar function's double-precision steps,
/// fused exactly where it calls std::fma.
inline __m128 exp4_avx2(__m128 x) {
  using namespace exp_f32_detail;
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  const __m256i idx =
      _mm256_and_si256(ki, _mm256_set1_epi64x(kTableSize - 1));
  __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kTable), idx, 8);
  t = _mm256_add_epi64(t, _mm256_slli_epi64(ki, 47));
  const __m256d poly = _mm256_fmadd_pd(
      _mm256_fmadd_pd(_mm256_set1_pd(kC0), r, _mm256_set1_pd(kC1)),
      _mm256_mul_pd(r, r),
      _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0)));
  return _mm256_cvtpd_ps(_mm256_mul_pd(poly, _mm256_castsi256_pd(t)));
}

inline __m256 exp8_avx2(__m256 x) {
  const __m256 y = _mm256_set_m128(exp4_avx2(_mm256_extractf128_ps(x, 1)),
                                   exp4_avx2(_mm256_castps256_ps128(x)));
  // Underflow (and -inf) gives +0; NaN compares false and propagates.
  const __m256 under = _mm256_cmp_ps(
      x, _mm256_set1_ps(exp_f32_detail::kUnderflow), _CMP_LT_OQ);
  return _mm256_andnot_ps(under, y);
}

void exp_row_avx2(const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, exp8_avx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = exp_f32(x[i]);
}

constexpr std::int64_t kLanes8 = 8;

/// Bitmap bits of one lane group: lane i holds row i's bits for columns
/// [c0, c0 + 32) (for [0, 16) when ld == 16).
inline __m256i row_bits_avx2(const std::uint8_t* bits, std::int64_t ld,
                             std::int64_t c0) {
  alignas(32) std::uint32_t w[kLanes8];
  for (std::int64_t i = 0; i < kLanes8; ++i) {
    const std::uint8_t* row = bits + i * ld + c0;
    if (ld == 16) {
      const __m128i z = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)),
          _mm_setzero_si128());
      w[i] = ~static_cast<std::uint32_t>(_mm_movemask_epi8(z)) & 0xffffu;
    } else {
      const __m256i z = _mm256_cmpeq_epi8(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)),
          _mm256_setzero_si256());
      w[i] = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(z));
    }
  }
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(w));
}

/// S[c][lane] = (sum_e q[e][lane] * k[c][e]) * scale for kC columns.
template <int kC>
inline void qk_cols_avx2(const float* qt, std::int64_t lanes,
                         const float* k, std::int64_t ldk, std::int64_t d,
                         __m256 scale, float* s) {
  __m256 acc[kC];
  #pragma GCC unroll 8
  for (int j = 0; j < kC; ++j) acc[j] = _mm256_setzero_ps();
  for (std::int64_t e = 0; e < d; ++e) {
    const __m256 qv = _mm256_loadu_ps(qt + e * lanes);
    const float* ke = k + e;
    #pragma GCC unroll 8
    for (int j = 0; j < kC; ++j) {
      acc[j] = _mm256_add_ps(
          acc[j], _mm256_mul_ps(qv, _mm256_broadcast_ss(ke + j * ldk)));
    }
  }
  #pragma GCC unroll 8
  for (int j = 0; j < kC; ++j) {
    _mm256_storeu_ps(s + j * kLanes8, _mm256_mul_ps(acc[j], scale));
  }
}

/// acc[e][lane] = acc*corr + sum_c w[c][lane] * v[c][e] for kE head
/// elements, on live lanes only.
template <int kE>
inline void pv_cols_avx2(const float* s, std::int64_t cols, const float* v,
                         std::int64_t ldv, float* acc, std::int64_t lanes,
                         __m256 corr, __m256 live) {
  __m256 pv[kE];
  #pragma GCC unroll 8
  for (int j = 0; j < kE; ++j) pv[j] = _mm256_setzero_ps();
  for (std::int64_t c = 0; c < cols; ++c) {
    const __m256 w = _mm256_loadu_ps(s + c * kLanes8);
    const float* vr = v + c * ldv;
    #pragma GCC unroll 8
    for (int j = 0; j < kE; ++j) {
      pv[j] = _mm256_add_ps(pv[j], _mm256_mul_ps(w, _mm256_broadcast_ss(vr + j)));
    }
  }
  #pragma GCC unroll 8
  for (int j = 0; j < kE; ++j) {
    const __m256 a = _mm256_loadu_ps(acc + j * lanes);
    const __m256 merged = _mm256_add_ps(_mm256_mul_ps(a, corr), pv[j]);
    _mm256_storeu_ps(acc + j * lanes, _mm256_blendv_ps(a, merged, live));
  }
}

void attn_lane_block_avx2(const LaneTile& t, const LaneBlock& b) {
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256 zero = _mm256_setzero_ps();
  const __m256 scale = _mm256_set1_ps(b.scale);
  const std::int64_t chunk = b.ld_bits == 16 ? 16 : 32;
  for (std::int64_t g0 = 0; g0 < t.rows; g0 += kLanes8) {
    const std::int64_t live_rows = std::min(kLanes8, t.rows - g0);
    const __m256i row_ok =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live_rows)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    float* s = t.s;
    const float* qt = t.qt + g0;
    std::int64_t c = 0;
    for (; c + 8 <= b.cols; c += 8) {
      qk_cols_avx2<8>(qt, t.lanes, b.k + c * b.ldk, b.ldk, t.d, scale,
                      s + c * kLanes8);
    }
    for (; c < b.cols; ++c) {
      qk_cols_avx2<1>(qt, t.lanes, b.k + c * b.ldk, b.ldk, t.d, scale,
                      s + c * kLanes8);
    }
    if (b.hook != nullptr) {
      b.hook(b.hook_ctx, s, kLanes8, g0, live_rows, b.cols);
    }

    // Mask (tail lanes are masked everywhere) and row max.
    __m256 mx = neg_inf;
    for (std::int64_t c0 = 0; c0 < b.cols; c0 += chunk) {
      const __m256i keep_bits =
          b.bits == nullptr
              ? row_ok
              : _mm256_and_si256(
                    row_bits_avx2(b.bits + g0 * b.ld_bits, b.ld_bits, c0),
                    row_ok);
      const std::int64_t c_end = std::min(b.cols, c0 + chunk);
      for (c = c0; c < c_end; ++c) {
        const __m256i bit =
            _mm256_set1_epi32(static_cast<int>(1u << (c - c0)));
        const __m256 drop = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_and_si256(keep_bits, bit), _mm256_setzero_si256()));
        const __m256 sv =
            _mm256_blendv_ps(_mm256_loadu_ps(s + c * kLanes8), neg_inf, drop);
        _mm256_storeu_ps(s + c * kLanes8, sv);
        mx = _mm256_max_ps(mx, sv);
      }
    }

    // Online softmax: weights in place, ascending-column sums.
    const __m256 m_old = _mm256_loadu_ps(t.m + g0);
    const __m256 l_old = _mm256_loadu_ps(t.l + g0);
    const __m256 live = _mm256_cmp_ps(mx, neg_inf, _CMP_NEQ_UQ);
    const __m256 m_new = _mm256_max_ps(m_old, mx);
    const __m256 corr =
        _mm256_andnot_ps(_mm256_cmp_ps(l_old, zero, _CMP_EQ_OQ),
                         exp8_avx2(_mm256_sub_ps(m_old, m_new)));
    __m256 sum = zero;
    for (c = 0; c < b.cols; ++c) {
      const __m256 w =
          exp8_avx2(_mm256_sub_ps(_mm256_loadu_ps(s + c * kLanes8), m_new));
      _mm256_storeu_ps(s + c * kLanes8, w);
      sum = _mm256_add_ps(sum, w);
    }

    // PV and merge; rows with no valid column keep their state.
    float* acc = t.acc + g0;
    std::int64_t e = 0;
    for (; e + 8 <= t.d; e += 8) {
      pv_cols_avx2<8>(s, b.cols, b.v + e, b.ldv, acc + e * t.lanes, t.lanes,
                      corr, live);
    }
    for (; e < t.d; ++e) {
      pv_cols_avx2<1>(s, b.cols, b.v + e, b.ldv, acc + e * t.lanes, t.lanes,
                      corr, live);
    }
    _mm256_storeu_ps(
        t.l + g0,
        _mm256_blendv_ps(l_old, _mm256_add_ps(_mm256_mul_ps(l_old, corr), sum),
                         live));
    _mm256_storeu_ps(t.m + g0, _mm256_blendv_ps(m_old, m_new, live));
  }
}

}  // namespace

void fill_avx2(KernelTable& table) {
  table.half_to_float = half_to_float_avx2;
  table.float_to_half = float_to_half_avx2;
  table.sgemm_accumulate = sgemm_accumulate_avx2;
  table.dot_rows = dot_rows_avx2;
  table.axpy = axpy_avx2;
  table.axpby = axpby_avx2;
  table.scale_inplace = scale_inplace_avx2;
  table.reduce_max = reduce_max_avx2;
  table.exp_row = exp_row_avx2;
  table.attn_lane_block = attn_lane_block_avx2;
}

}  // namespace stof::core::detail

#endif  // x86_64
