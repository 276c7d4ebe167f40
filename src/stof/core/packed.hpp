// Packed-FP32 functional execution layer.
//
// Every functional kernel in STOF stores tensors as bit-accurate binary16
// and accumulates in binary32 — but the original kernels round-tripped
// FP16<->FP32 *per element* through `Tensor::at()`, which dominates the
// runtime of the bit-accurate execution path.  This module provides the
// bulk primitives the packed kernels are built from:
//
//   * panel conversion — whole half panels to contiguous FP32 buffers (a
//     65536-entry exact lookup table) and back (round-to-nearest-even),
//   * a cache-blocked FP32 GEMM accumulation microkernel that preserves the
//     scalar reference's per-element accumulation order, so packed results
//     are bit-identical to it.
//
// Every kernel has this one packed body; the scalar reference bodies live
// in the test oracle (tests/oracle/), which tests and bench_tier1 compare
// the kernels against.
#pragma once

#include <cstdint>
#include <span>

#include "stof/core/half.hpp"

namespace stof::packed {

/// 65536-entry binary16 -> binary32 table; entry i == half::to_float(i).
[[nodiscard]] const float* h2f_table();

/// Table-based scalar conversion (exact, identical to half::to_float).
[[nodiscard]] inline float to_float(half h) { return h2f_table()[h.bits()]; }

/// Convert a whole half panel into a contiguous FP32 buffer.
void half_to_float(std::span<const half> src, std::span<float> dst);

/// Convert an FP32 panel back to half with round-to-nearest-even — the
/// same rounding as the scalar kernels' final `half(acc)` stores.
void float_to_half(std::span<const float> src, std::span<half> dst);

/// Cache-blocked accumulation C += A x B over raw row-major FP32 panels:
/// A is (rows x k), B is (k x n), C is (rows x n) and must be initialized
/// by the caller.  For every output element the k-index ascends strictly,
/// so the FP32 accumulation order — and therefore every intermediate
/// rounding — matches the scalar `for ki: acc += a*b` loop bit for bit.
/// Internally register-tiled over 4 output rows (one B row load feeds four
/// accumulation streams) on top of the n/k cache blocking.
void sgemm_accumulate(const float* a, const float* b, float* c,
                      std::int64_t rows, std::int64_t k, std::int64_t n);

}  // namespace stof::packed
