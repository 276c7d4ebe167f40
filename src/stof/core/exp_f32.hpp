// The repo-owned single-precision exp used by every softmax in the
// block-wise and decode attention kernels.
//
// `exp_f32` is a port of glibc's FMA `expf` (glibc >= 2.28, the
// `__expf_fma` variant x86-64 selects on FMA hardware): a 32-entry
// 2^(i/32) table, a degree-3 polynomial evaluated in double, and one final
// rounding to float.  Owning the function makes the attention outputs a
// property of this repository rather than of the host's libm, and lets the
// SIMD kernel tables evaluate it across vector lanes with the same
// operations (`KernelTable::exp_row`): every table's entry is byte-identical
// to this scalar function.
//
// Domain: x <= 0 (including -0) and -inf; softmax only ever exponentiates
// `score - running_max`.  x < -0x1.9fe368p6 (where expf underflows) and
// -inf give +0, and NaN propagates.
#pragma once

#include <cstdint>

namespace stof::core {

/// exp(x) for x <= 0, bit-identical to glibc's FMA expf on that domain.
[[nodiscard]] float exp_f32(float x);

namespace exp_f32_detail {

inline constexpr int kTableSize = 32;  // N = 2^5 table entries
inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kTableSize;
inline constexpr double kShift = 0x1.8p+52;  // round-to-int shifter
/// Polynomial 2^(r/N) ~= 1 + C2*r + C1*r^2 + C0*r^3.
inline constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;
/// Below this, expf underflows to +0.
inline constexpr float kUnderflow = -0x1.9fe368p6f;
/// kTable[i] = bits(double(2^(i/N))) - (i << 47); adding (k << 47) to
/// entry k % N yields the bits of 2^(k/N) for any integer k in range.
inline constexpr std::uint64_t kTable[kTableSize] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

}  // namespace exp_f32_detail
}  // namespace stof::core
