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
//     scalar kernels' per-element accumulation order, so packed results are
//     bit-identical to the scalar reference.
//
// A process-wide switch selects the execution path; kernels with both a
// packed and a scalar implementation (GEMM, block-wise MHA) consult it.
// The packed path is the default; tests and the perf-regression harness
// flip it to compare the two implementations.
#pragma once

#include <cstdint>
#include <span>

#include "stof/core/half.hpp"

namespace stof {

/// True when kernels should take the packed-FP32 path (the default).
[[nodiscard]] bool packed_execution_enabled();

/// Select the execution path globally (tests / benchmarks only).
void set_packed_execution(bool enabled);

/// RAII guard restoring the previous execution path on scope exit.
class ScopedPackedExecution {
 public:
  explicit ScopedPackedExecution(bool enabled);
  ~ScopedPackedExecution();
  ScopedPackedExecution(const ScopedPackedExecution&) = delete;
  ScopedPackedExecution& operator=(const ScopedPackedExecution&) = delete;

 private:
  bool previous_;
};

namespace packed {

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


}  // namespace packed
}  // namespace stof
