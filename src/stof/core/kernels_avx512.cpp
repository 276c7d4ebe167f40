// AVX-512 GEMM tiles, exp and lane tile (compiled with -mavx512f
// -mavx512bw -ffp-contract=off).
//
// The GEMM accumulators, the softmax exp and the block-wise lane tile are
// overridden here — conversions and the other element-wise primitives stay
// on the AVX2 entries, which already saturate memory for those shapes.  The
// same bit-identity rules apply: separate multiply and add per ascending
// depth step, vector lanes only across independent outputs (columns of C,
// or query rows in the lane tile), accumulators resident in zmm registers
// for the whole depth loop.  FMA appears only in exp_f32's double steps,
// where the scalar reference calls std::fma.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "stof/core/kernels.hpp"

namespace stof::core::detail {
namespace {

inline void tile512_4x32(const float* a0, const float* a1, const float* a2,
                         const float* a3, const float* b, std::int64_t ldb,
                         float* c0, float* c1, float* c2, float* c3,
                         std::int64_t depth) {
  __m512 acc00 = _mm512_loadu_ps(c0), acc01 = _mm512_loadu_ps(c0 + 16);
  __m512 acc10 = _mm512_loadu_ps(c1), acc11 = _mm512_loadu_ps(c1 + 16);
  __m512 acc20 = _mm512_loadu_ps(c2), acc21 = _mm512_loadu_ps(c2 + 16);
  __m512 acc30 = _mm512_loadu_ps(c3), acc31 = _mm512_loadu_ps(c3 + 16);
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const __m512 b0 = _mm512_loadu_ps(br);
    const __m512 b1 = _mm512_loadu_ps(br + 16);
    __m512 av = _mm512_set1_ps(a0[e]);
    acc00 = _mm512_add_ps(acc00, _mm512_mul_ps(av, b0));
    acc01 = _mm512_add_ps(acc01, _mm512_mul_ps(av, b1));
    av = _mm512_set1_ps(a1[e]);
    acc10 = _mm512_add_ps(acc10, _mm512_mul_ps(av, b0));
    acc11 = _mm512_add_ps(acc11, _mm512_mul_ps(av, b1));
    av = _mm512_set1_ps(a2[e]);
    acc20 = _mm512_add_ps(acc20, _mm512_mul_ps(av, b0));
    acc21 = _mm512_add_ps(acc21, _mm512_mul_ps(av, b1));
    av = _mm512_set1_ps(a3[e]);
    acc30 = _mm512_add_ps(acc30, _mm512_mul_ps(av, b0));
    acc31 = _mm512_add_ps(acc31, _mm512_mul_ps(av, b1));
  }
  _mm512_storeu_ps(c0, acc00);
  _mm512_storeu_ps(c0 + 16, acc01);
  _mm512_storeu_ps(c1, acc10);
  _mm512_storeu_ps(c1 + 16, acc11);
  _mm512_storeu_ps(c2, acc20);
  _mm512_storeu_ps(c2 + 16, acc21);
  _mm512_storeu_ps(c3, acc30);
  _mm512_storeu_ps(c3 + 16, acc31);
}

inline void tile512_4x16(const float* a0, const float* a1, const float* a2,
                         const float* a3, const float* b, std::int64_t ldb,
                         float* c0, float* c1, float* c2, float* c3,
                         std::int64_t depth) {
  __m512 acc0 = _mm512_loadu_ps(c0);
  __m512 acc1 = _mm512_loadu_ps(c1);
  __m512 acc2 = _mm512_loadu_ps(c2);
  __m512 acc3 = _mm512_loadu_ps(c3);
  for (std::int64_t e = 0; e < depth; ++e) {
    const __m512 bv = _mm512_loadu_ps(b + e * ldb);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a0[e]), bv));
    acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a1[e]), bv));
    acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a2[e]), bv));
    acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a3[e]), bv));
  }
  _mm512_storeu_ps(c0, acc0);
  _mm512_storeu_ps(c1, acc1);
  _mm512_storeu_ps(c2, acc2);
  _mm512_storeu_ps(c3, acc3);
}

inline void tile256_4x8(const float* a0, const float* a1, const float* a2,
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

inline void tile512_1xw(const float* ar, const float* b, std::int64_t ldb,
                        float* cr, std::int64_t depth, int vecs) {
  __m512 acc0 = _mm512_loadu_ps(cr);
  __m512 acc1 = vecs > 1 ? _mm512_loadu_ps(cr + 16) : _mm512_setzero_ps();
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const __m512 av = _mm512_set1_ps(ar[e]);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(av, _mm512_loadu_ps(br)));
    if (vecs > 1) {
      acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(av, _mm512_loadu_ps(br + 16)));
    }
  }
  _mm512_storeu_ps(cr, acc0);
  if (vecs > 1) _mm512_storeu_ps(cr + 16, acc1);
}

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

void sgemm_accumulate_ld_avx512(const float* a, std::int64_t lda,
                                const float* b, std::int64_t ldb, float* c,
                                std::int64_t ldc, std::int64_t rows,
                                std::int64_t depth, std::int64_t cols) {
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
    for (; j + 32 <= cols; j += 32) {
      tile512_4x32(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
                   depth);
    }
    for (; j + 16 <= cols; j += 16) {
      tile512_4x16(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
                   depth);
    }
    for (; j + 8 <= cols; j += 8) {
      tile256_4x8(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
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
    for (; j + 32 <= cols; j += 32) {
      tile512_1xw(ar, b + j, ldb, cr + j, depth, 2);
    }
    for (; j + 16 <= cols; j += 16) {
      tile512_1xw(ar, b + j, ldb, cr + j, depth, 1);
    }
    if (j < cols) {
      tile_cols_scalar(ar, lda, b, ldb, cr, ldc, 1, depth, j, cols);
    }
  }
}

void sgemm_accumulate_avx512(const float* a, const float* b, float* c,
                             std::int64_t rows, std::int64_t k,
                             std::int64_t n) {
  // Same cache blocking as the scalar reference (k0 then ki ascending per
  // output element).
  constexpr std::int64_t kNB = 256;
  constexpr std::int64_t kKB = 128;
  for (std::int64_t n0 = 0; n0 < n; n0 += kNB) {
    const std::int64_t nw = std::min(kNB, n - n0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKB) {
      const std::int64_t kw = std::min(kKB, k - k0);
      sgemm_accumulate_ld_avx512(a + k0, k, b + k0 * n + n0, n, c + n0, n,
                                 rows, kw, nw);
    }
  }
}

// ---- exp_f32 and the lane tile ---------------------------------------------

/// exp_f32's 32-entry table in four zmm registers: the lookup is two
/// 16-entry two-source permutes and a blend on index bit 4 (no gather).
struct ExpTable512 {
  __m512i t0, t1, t2, t3;
  ExpTable512() {
    const auto* tab = exp_f32_detail::kTable;
    t0 = _mm512_loadu_si512(tab);
    t1 = _mm512_loadu_si512(tab + 8);
    t2 = _mm512_loadu_si512(tab + 16);
    t3 = _mm512_loadu_si512(tab + 24);
  }
};

/// exp_f32 on eight lanes: the scalar function's double-precision steps,
/// fused exactly where it calls std::fma.
inline __m256 exp8_avx512(__m256 x, const ExpTable512& tab) {
  using namespace exp_f32_detail;
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d inv_ln2n = _mm512_set1_pd(kInvLn2N);
  const __m512d shift = _mm512_set1_pd(kShift);
  __m512d kd = _mm512_fmadd_pd(inv_ln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, kd);
  const __m512i lo = _mm512_permutex2var_epi64(tab.t0, ki, tab.t1);
  const __m512i hi = _mm512_permutex2var_epi64(tab.t2, ki, tab.t3);
  __m512i t = _mm512_mask_blend_epi64(
      _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), lo, hi);
  t = _mm512_add_epi64(t, _mm512_slli_epi64(ki, 47));
  const __m512d poly = _mm512_fmadd_pd(
      _mm512_fmadd_pd(_mm512_set1_pd(kC0), r, _mm512_set1_pd(kC1)),
      _mm512_mul_pd(r, r),
      _mm512_fmadd_pd(_mm512_set1_pd(kC2), r, _mm512_set1_pd(1.0)));
  return _mm512_cvtpd_ps(_mm512_mul_pd(poly, _mm512_castsi512_pd(t)));
}

inline __m512 exp16_avx512(__m512 x, const ExpTable512& tab) {
  const __m256 lo = exp8_avx512(_mm512_castps512_ps256(x), tab);
  const __m256 hi = exp8_avx512(
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1)), tab);
  const __m512 y = _mm512_castpd_ps(_mm512_insertf64x4(
      _mm512_castpd256_pd512(_mm256_castps_pd(lo)), _mm256_castps_pd(hi), 1));
  // Underflow (and -inf) gives +0; NaN compares false and propagates.
  const __mmask16 under = _mm512_cmp_ps_mask(
      x, _mm512_set1_ps(exp_f32_detail::kUnderflow), _CMP_LT_OQ);
  return _mm512_mask_mov_ps(y, under, _mm512_setzero_ps());
}

void exp_row_avx512(const float* x, float* y, std::int64_t n) {
  const ExpTable512 tab;
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, exp16_avx512(_mm512_loadu_ps(x + i), tab));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        y + i, tail, exp16_avx512(_mm512_maskz_loadu_ps(tail, x + i), tab));
  }
}

constexpr std::int64_t kLanes16 = kLaneTileWidth;

/// Bitmap bits of one lane group: lane i holds row i's bits for columns
/// [c0, c0 + 32) (for [0, 16) when ld == 16).
inline __m512i row_bits_avx512(const std::uint8_t* bits, std::int64_t ld,
                               std::int64_t c0) {
  if (ld == 16) {
    // The group's 16 bitmap rows are 256 contiguous bytes: four 64-byte
    // byte tests give the rows' 16-bit masks in order.
    alignas(32) std::uint64_t w[4];
    for (int k = 0; k < 4; ++k) {
      const __m512i z = _mm512_loadu_si512(bits + 64 * k);
      w[k] = _mm512_test_epi8_mask(z, z);
    }
    return _mm512_cvtepu16_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(w)));
  }
  alignas(64) std::uint32_t w[kLanes16];
  for (std::int64_t i = 0; i < kLanes16; ++i) {
    const __m256i z = _mm256_cmpeq_epi8(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bits + i * ld + c0)),
        _mm256_setzero_si256());
    w[i] = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(z));
  }
  return _mm512_load_si512(w);
}

/// S[c][lane] = (sum_e q[e][lane] * k[c][e]) * scale for kC columns.
template <int kC>
inline void qk_cols_avx512(const float* qt, std::int64_t lanes,
                           const float* k, std::int64_t ldk, std::int64_t d,
                           __m512 scale, float* s) {
  __m512 acc[kC];
  #pragma GCC unroll 8
  for (int j = 0; j < kC; ++j) acc[j] = _mm512_setzero_ps();
  for (std::int64_t e = 0; e < d; ++e) {
    const __m512 qv = _mm512_loadu_ps(qt + e * lanes);
    const float* ke = k + e;
    #pragma GCC unroll 8
    for (int j = 0; j < kC; ++j) {
      acc[j] = _mm512_add_ps(acc[j],
                             _mm512_mul_ps(qv, _mm512_set1_ps(ke[j * ldk])));
    }
  }
  #pragma GCC unroll 8
  for (int j = 0; j < kC; ++j) {
    _mm512_storeu_ps(s + j * kLanes16, _mm512_mul_ps(acc[j], scale));
  }
}

/// acc[e][lane] = acc*corr + sum_c w[c][lane] * v[c][e] for kE head
/// elements, on live lanes only.
template <int kE>
inline void pv_cols_avx512(const float* s, std::int64_t cols, const float* v,
                           std::int64_t ldv, float* acc, std::int64_t lanes,
                           __m512 corr, __mmask16 live) {
  __m512 pv[kE];
  #pragma GCC unroll 8
  for (int j = 0; j < kE; ++j) pv[j] = _mm512_setzero_ps();
  for (std::int64_t c = 0; c < cols; ++c) {
    const __m512 w = _mm512_loadu_ps(s + c * kLanes16);
    const float* vr = v + c * ldv;
    #pragma GCC unroll 8
    for (int j = 0; j < kE; ++j) {
      pv[j] = _mm512_add_ps(pv[j], _mm512_mul_ps(w, _mm512_set1_ps(vr[j])));
    }
  }
  #pragma GCC unroll 8
  for (int j = 0; j < kE; ++j) {
    const __m512 a = _mm512_loadu_ps(acc + j * lanes);
    _mm512_storeu_ps(acc + j * lanes,
                     _mm512_mask_add_ps(a, live, _mm512_mul_ps(a, corr), pv[j]));
  }
}

void attn_lane_block_avx512(const LaneTile& t, const LaneBlock& b) {
  const __m512 neg_inf =
      _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  const __m512 scale = _mm512_set1_ps(b.scale);
  const ExpTable512 tab;
  const std::int64_t chunk = b.ld_bits == 16 ? 16 : 32;
  for (std::int64_t g0 = 0; g0 < t.rows; g0 += kLanes16) {
    const std::int64_t live_rows = std::min(kLanes16, t.rows - g0);
    const auto row_ok = static_cast<__mmask16>((1u << live_rows) - 1u);
    float* s = t.s;
    const float* qt = t.qt + g0;
    const std::uint8_t* bits =
        b.bits != nullptr ? b.bits + g0 * b.ld_bits : nullptr;

    std::int64_t c = 0;
    for (; c + 8 <= b.cols; c += 8) {
      qk_cols_avx512<8>(qt, t.lanes, b.k + c * b.ldk, b.ldk, t.d, scale,
                        s + c * kLanes16);
    }
    for (; c < b.cols; ++c) {
      qk_cols_avx512<1>(qt, t.lanes, b.k + c * b.ldk, b.ldk, t.d, scale,
                        s + c * kLanes16);
    }
    if (b.hook != nullptr) {
      b.hook(b.hook_ctx, s, kLanes16, g0, live_rows, b.cols);
    }

    // Mask (tail lanes are masked everywhere) and row max.
    __m512 mx = neg_inf;
    for (std::int64_t c0 = 0; c0 < b.cols; c0 += chunk) {
      const __m512i keep_bits = bits == nullptr
                                    ? _mm512_set1_epi32(-1)
                                    : row_bits_avx512(bits, b.ld_bits, c0);
      const std::int64_t c_end = std::min(b.cols, c0 + chunk);
      for (c = c0; c < c_end; ++c) {
        const __mmask16 keep = _mm512_mask_test_epi32_mask(
            row_ok, keep_bits,
            _mm512_set1_epi32(static_cast<int>(1u << (c - c0))));
        const __m512 sv =
            _mm512_mask_mov_ps(neg_inf, keep, _mm512_loadu_ps(s + c * kLanes16));
        _mm512_storeu_ps(s + c * kLanes16, sv);
        mx = _mm512_max_ps(mx, sv);
      }
    }

    // Online softmax: weights in place, ascending-column sums.
    const __m512 m_old = _mm512_loadu_ps(t.m + g0);
    const __m512 l_old = _mm512_loadu_ps(t.l + g0);
    const __mmask16 live = _mm512_cmp_ps_mask(mx, neg_inf, _CMP_NEQ_UQ);
    const __m512 m_new = _mm512_max_ps(m_old, mx);
    const __m512 corr = _mm512_mask_mov_ps(
        exp16_avx512(_mm512_sub_ps(m_old, m_new), tab),
        _mm512_cmp_ps_mask(l_old, _mm512_setzero_ps(), _CMP_EQ_OQ),
        _mm512_setzero_ps());
    __m512 sum = _mm512_setzero_ps();
    for (c = 0; c < b.cols; ++c) {
      const __m512 w = exp16_avx512(
          _mm512_sub_ps(_mm512_loadu_ps(s + c * kLanes16), m_new), tab);
      _mm512_storeu_ps(s + c * kLanes16, w);
      sum = _mm512_add_ps(sum, w);
    }

    // PV and merge; rows with no valid column keep their state.
    float* acc = t.acc + g0;
    std::int64_t e = 0;
    for (; e + 8 <= t.d; e += 8) {
      pv_cols_avx512<8>(s, b.cols, b.v + e, b.ldv, acc + e * t.lanes,
                        t.lanes, corr, live);
    }
    for (; e < t.d; ++e) {
      pv_cols_avx512<1>(s, b.cols, b.v + e, b.ldv, acc + e * t.lanes,
                        t.lanes, corr, live);
    }
    _mm512_storeu_ps(t.l + g0, _mm512_mask_add_ps(
                                   l_old, live, _mm512_mul_ps(l_old, corr), sum));
    _mm512_storeu_ps(t.m + g0, _mm512_mask_mov_ps(m_old, live, m_new));
  }
}

}  // namespace

void fill_avx512(KernelTable& table) {
  table.sgemm_accumulate = sgemm_accumulate_avx512;
  table.exp_row = exp_row_avx512;
  table.attn_lane_block = attn_lane_block_avx512;
}

}  // namespace stof::core::detail

#endif  // x86_64
