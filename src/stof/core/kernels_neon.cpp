// NEON micro-kernels for AArch64 (compiled with -ffp-contract=off).
//
// Same bit-identity rules as the x86 tables: separate vmul/vadd per
// ascending depth step (never vmla/fmla — those fuse), lanes only across
// independent output columns.  Conversions stay on the scalar table paths
// (the h2f table and half::from_float) so NaN canonicalization and
// round-to-nearest-even semantics are exactly the reference's.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cstdint>

#include "stof/core/kernels.hpp"

namespace stof::core::detail {
namespace {

inline void tile_2x8_neon(const float* a0, const float* a1, const float* b,
                          std::int64_t ldb, float* c0, float* c1,
                          std::int64_t depth) {
  float32x4_t acc00 = vld1q_f32(c0), acc01 = vld1q_f32(c0 + 4);
  float32x4_t acc10 = vld1q_f32(c1), acc11 = vld1q_f32(c1 + 4);
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const float32x4_t b0 = vld1q_f32(br);
    const float32x4_t b1 = vld1q_f32(br + 4);
    float32x4_t av = vdupq_n_f32(a0[e]);
    acc00 = vaddq_f32(acc00, vmulq_f32(av, b0));
    acc01 = vaddq_f32(acc01, vmulq_f32(av, b1));
    av = vdupq_n_f32(a1[e]);
    acc10 = vaddq_f32(acc10, vmulq_f32(av, b0));
    acc11 = vaddq_f32(acc11, vmulq_f32(av, b1));
  }
  vst1q_f32(c0, acc00);
  vst1q_f32(c0 + 4, acc01);
  vst1q_f32(c1, acc10);
  vst1q_f32(c1 + 4, acc11);
}

inline void tile_1x4_neon(const float* ar, const float* b, std::int64_t ldb,
                          float* cr, std::int64_t depth) {
  float32x4_t acc = vld1q_f32(cr);
  for (std::int64_t e = 0; e < depth; ++e) {
    acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(ar[e]), vld1q_f32(b + e * ldb)));
  }
  vst1q_f32(cr, acc);
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

void sgemm_accumulate_ld_neon(const float* a, std::int64_t lda, const float* b,
                              std::int64_t ldb, float* c, std::int64_t ldc,
                              std::int64_t rows, std::int64_t depth,
                              std::int64_t cols) {
  std::int64_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const float* a0 = a + (r + 0) * lda;
    const float* a1 = a + (r + 1) * lda;
    float* c0 = c + (r + 0) * ldc;
    float* c1 = c + (r + 1) * ldc;
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      tile_2x8_neon(a0, a1, b + j, ldb, c0 + j, c1 + j, depth);
    }
    for (; j + 4 <= cols; j += 4) {
      tile_1x4_neon(a0, b + j, ldb, c0 + j, depth);
      tile_1x4_neon(a1, b + j, ldb, c1 + j, depth);
    }
    if (j < cols) {
      tile_cols_scalar(a + r * lda, lda, b, ldb, c + r * ldc, ldc, 2, depth, j,
                       cols);
    }
  }
  for (; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* cr = c + r * ldc;
    std::int64_t j = 0;
    for (; j + 4 <= cols; j += 4) tile_1x4_neon(ar, b + j, ldb, cr + j, depth);
    if (j < cols) {
      tile_cols_scalar(ar, lda, b, ldb, cr, ldc, 1, depth, j, cols);
    }
  }
}

void sgemm_accumulate_neon(const float* a, const float* b, float* c,
                           std::int64_t rows, std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kNB = 256;
  constexpr std::int64_t kKB = 128;
  for (std::int64_t n0 = 0; n0 < n; n0 += kNB) {
    const std::int64_t nw = std::min(kNB, n - n0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKB) {
      const std::int64_t kw = std::min(kKB, k - k0);
      sgemm_accumulate_ld_neon(a + k0, k, b + k0 * n + n0, n, c + n0, n, rows,
                               kw, nw);
    }
  }
}

void axpy_neon(float* y, const float* x, float a, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t t = vmulq_f32(va, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), t));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void axpby_neon(float* y, const float* x, float beta, float alpha,
                std::int64_t n) {
  const float32x4_t vb = vdupq_n_f32(beta);
  const float32x4_t va = vdupq_n_f32(alpha);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t t = vmulq_f32(vld1q_f32(y + i), vb);
    const float32x4_t u = vmulq_f32(va, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(t, u));
  }
  for (; i < n; ++i) y[i] = y[i] * beta + alpha * x[i];
}

void scale_inplace_neon(float* x, float s, std::int64_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

float reduce_max_neon(const float* x, std::int64_t n) {
  std::int64_t i = 0;
  float m;
  if (n >= 4) {
    float32x4_t acc = vld1q_f32(x);
    for (i = 4; i + 4 <= n; i += 4) acc = vmaxq_f32(acc, vld1q_f32(x + i));
    m = vmaxvq_f32(acc);
  } else {
    m = x[0];
    i = 1;
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

}  // namespace

void fill_neon(KernelTable& table) {
  table.sgemm_accumulate = sgemm_accumulate_neon;
  table.axpy = axpy_neon;
  table.axpby = axpby_neon;
  table.scale_inplace = scale_inplace_neon;
  table.reduce_max = reduce_max_neon;
}

}  // namespace stof::core::detail

#endif  // __aarch64__
