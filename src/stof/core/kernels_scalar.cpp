// Scalar reference implementations of every KernelTable entry.
//
// These are the bit-exactness ground truth: the GEMM bodies are the
// register-blocked loops the packed layer has always run (moved here
// verbatim from packed.cpp), the conversions go through the exact h2f
// table / half::from_float, and the decode primitives spell out the
// serial per-output accumulation order the SIMD tables must reproduce.
// The lane tile runs its lanes in inner loops, so a group's rows advance
// together exactly as the SIMD tables' vector lanes do.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"

// This translation unit has no -mfma, so std::fma would be a libm call
// (about 4x the cost of libm's expf).  On x86-64 an fma clone, picked at
// load time on FMA hardware, inlines it as one instruction; fma is exactly
// rounded either way, so both clones return the same bits.  ThreadSanitizer
// builds keep the default clone only: the clones' ifunc resolver runs while
// the loader relocates the program, before the TSan runtime is set up, and
// its instrumented entry crashes the process at load.
#if defined(__SANITIZE_THREAD__)
#define STOF_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STOF_TSAN_ENABLED 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(STOF_TSAN_ENABLED)
#if __has_attribute(target_clones)
#define STOF_EXP_F32_CLONES __attribute__((target_clones("fma", "default")))
#endif
#endif
#ifndef STOF_EXP_F32_CLONES
#define STOF_EXP_F32_CLONES
#endif

namespace stof::core {

STOF_EXP_F32_CLONES float exp_f32(float x) {
  using namespace exp_f32_detail;
  if (x < kUnderflow) return 0.0f;  // also -inf
  const double xd = x;
  // x*N/ln2 = k + r: the shifter rounds to the nearest integer k (its low
  // mantissa bits), and r keeps the fused remainder.
  double kd = std::fma(kInvLn2N, xd, kShift);
  const auto ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (1 + C2*r + C1*r^2 + C0*r^3).
  const double s =
      std::bit_cast<double>(kTable[ki % kTableSize] + (ki << 47));
  const double y =
      std::fma(std::fma(kC0, r, kC1), r * r, std::fma(kC2, r, 1.0)) * s;
  return static_cast<float>(y);
}

namespace {

void half_to_float_scalar(const half* src, float* dst, std::int64_t n) {
  const float* table = packed::h2f_table();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = table[src[i].bits()];
}

void float_to_half_scalar(const float* src, half* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = half::from_bits(half::from_float(src[i]));
  }
}

void sgemm_accumulate_scalar(const float* a, const float* b, float* c,
                             std::int64_t rows, std::int64_t k,
                             std::int64_t n) {
  // Block N so the active C slice and B column panel stay cache-resident,
  // and block K so the B sub-panel fits L2.  The k0/ki split keeps the
  // k-index strictly ascending per output element (bit-identity contract).
  // Within a cache block, four output rows are register-tiled together:
  // each B row load feeds four independent accumulation streams, which
  // permutes only across output elements, never within one element's
  // k-ascending term sequence.
  constexpr std::int64_t kNB = 256;
  constexpr std::int64_t kKB = 128;
  constexpr std::int64_t kMR = 4;
  for (std::int64_t n0 = 0; n0 < n; n0 += kNB) {
    const std::int64_t nw = std::min(kNB, n - n0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKB) {
      const std::int64_t kw = std::min(kKB, k - k0);
      std::int64_t r = 0;
      for (; r + kMR <= rows; r += kMR) {
        float* c0 = c + (r + 0) * n + n0;
        float* c1 = c + (r + 1) * n + n0;
        float* c2 = c + (r + 2) * n + n0;
        float* c3 = c + (r + 3) * n + n0;
        const float* a0 = a + (r + 0) * k + k0;
        const float* a1 = a + (r + 1) * k + k0;
        const float* a2 = a + (r + 2) * k + k0;
        const float* a3 = a + (r + 3) * k + k0;
        for (std::int64_t ki = 0; ki < kw; ++ki) {
          const float av0 = a0[ki];
          const float av1 = a1[ki];
          const float av2 = a2[ki];
          const float av3 = a3[ki];
          const float* br = b + (k0 + ki) * n + n0;
          for (std::int64_t j = 0; j < nw; ++j) {
            const float bv = br[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
            c2[j] += av2 * bv;
            c3[j] += av3 * bv;
          }
        }
      }
      for (; r < rows; ++r) {
        float* cr = c + r * n + n0;
        const float* ar = a + r * k + k0;
        for (std::int64_t ki = 0; ki < kw; ++ki) {
          const float av = ar[ki];
          const float* br = b + (k0 + ki) * n + n0;
          for (std::int64_t j = 0; j < nw; ++j) cr[j] += av * br[j];
        }
      }
    }
  }
}

void dot_rows_scalar(const float* q, const float* base, std::int64_t stride,
                     const float* idx, float* out, std::int64_t count,
                     std::int64_t d) {
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t r =
        idx != nullptr ? static_cast<std::int64_t>(idx[i]) : i;
    const float* row = base + r * stride;
    float acc = 0.0f;
    for (std::int64_t e = 0; e < d; ++e) acc += q[e] * row[e];
    out[i] = acc;
  }
}

void axpy_scalar(float* y, const float* x, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void axpby_scalar(float* y, const float* x, float beta, float alpha,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = y[i] * beta + alpha * x[i];
}

void scale_inplace_scalar(float* x, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= s;
}

float reduce_max_scalar(const float* x, std::int64_t n) {
  float m = x[0];
  for (std::int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

void exp_row_scalar(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = exp_f32(x[i]);
}

void attn_lane_block_scalar(const LaneTile& t, const LaneBlock& b) {
  constexpr std::int64_t kW = kLaneTileWidth;
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (std::int64_t g0 = 0; g0 < t.rows; g0 += kW) {
    const std::int64_t live_rows = std::min(kW, t.rows - g0);
    float* s = t.s;
    // S = (Q K^T) * scale, one lane per query row.
    for (std::int64_t c = 0; c < b.cols; ++c) {
      float* sc = s + c * kW;
      std::fill_n(sc, kW, 0.0f);
      for (std::int64_t e = 0; e < t.d; ++e) {
        const float kv = b.k[c * b.ldk + e];
        const float* q = t.qt + e * t.lanes + g0;
        for (std::int64_t i = 0; i < kW; ++i) sc[i] += q[i] * kv;
      }
      for (std::int64_t i = 0; i < kW; ++i) sc[i] *= b.scale;
    }
    if (b.hook != nullptr) b.hook(b.hook_ctx, s, kW, g0, live_rows, b.cols);

    // Mask (tail lanes are masked everywhere) and row max.
    float mx[kW];
    std::fill_n(mx, kW, kNegInf);
    for (std::int64_t c = 0; c < b.cols; ++c) {
      float* sc = s + c * kW;
      for (std::int64_t i = 0; i < kW; ++i) {
        const bool keep =
            i < live_rows &&
            (b.bits == nullptr || b.bits[(g0 + i) * b.ld_bits + c] != 0);
        sc[i] = keep ? sc[i] : kNegInf;
        mx[i] = std::max(mx[i], sc[i]);
      }
    }

    // Online softmax: weights in place, ascending-column sums.
    float m_new[kW], corr[kW], sum[kW];
    for (std::int64_t i = 0; i < kW; ++i) {
      const float m = t.m[g0 + i];
      m_new[i] = std::max(m, mx[i]);
      corr[i] = t.l[g0 + i] == 0.0f ? 0.0f : exp_f32(m - m_new[i]);
      sum[i] = 0.0f;
    }
    for (std::int64_t c = 0; c < b.cols; ++c) {
      float* sc = s + c * kW;
      for (std::int64_t i = 0; i < kW; ++i) {
        sc[i] = exp_f32(sc[i] - m_new[i]);
        sum[i] += sc[i];
      }
    }

    // PV and merge; rows with no valid column keep their state.
    for (std::int64_t e = 0; e < t.d; ++e) {
      float pv[kW];
      std::fill_n(pv, kW, 0.0f);
      for (std::int64_t c = 0; c < b.cols; ++c) {
        const float vv = b.v[c * b.ldv + e];
        const float* sc = s + c * kW;
        for (std::int64_t i = 0; i < kW; ++i) pv[i] += sc[i] * vv;
      }
      float* acc = t.acc + e * t.lanes + g0;
      for (std::int64_t i = 0; i < kW; ++i) {
        if (mx[i] != kNegInf) acc[i] = acc[i] * corr[i] + pv[i];
      }
    }
    for (std::int64_t i = 0; i < kW; ++i) {
      if (mx[i] == kNegInf) continue;
      t.l[g0 + i] = t.l[g0 + i] * corr[i] + sum[i];
      t.m[g0 + i] = m_new[i];
    }
  }
}

}  // namespace

const KernelTable& scalar_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.isa = Isa::kScalar;
    t.half_to_float = half_to_float_scalar;
    t.float_to_half = float_to_half_scalar;
    t.sgemm_accumulate = sgemm_accumulate_scalar;
    t.dot_rows = dot_rows_scalar;
    t.axpy = axpy_scalar;
    t.axpby = axpby_scalar;
    t.scale_inplace = scale_inplace_scalar;
    t.reduce_max = reduce_max_scalar;
    t.exp_row = exp_row_scalar;
    t.attn_lane_block = attn_lane_block_scalar;
    return t;
  }();
  return table;
}

}  // namespace stof::core
