#include "stof/core/packed.hpp"

#include <vector>

#include "stof/core/check.hpp"
#include "stof/core/kernels.hpp"

namespace stof::packed {

const float* h2f_table() {
  // Function-local static: built once, thread-safe under C++11 init rules.
  static const std::vector<float> table = [] {
    std::vector<float> t(65536);
    for (std::uint32_t bits = 0; bits < 65536; ++bits) {
      t[bits] = half::to_float(static_cast<std::uint16_t>(bits));
    }
    return t;
  }();
  return table.data();
}

// The loop bodies live in the runtime-dispatched kernel table
// (core/kernels.hpp): the scalar entries are the original reference loops,
// the SIMD entries are byte-identical rewrites selected by CPU feature
// detection at startup.

void half_to_float(std::span<const half> src, std::span<float> dst) {
  STOF_EXPECTS(src.size() == dst.size(), "panel size mismatch");
  core::note_kernel_dispatch("exec.dispatch.half_to_float.calls");
  core::kernels().half_to_float(src.data(), dst.data(),
                                static_cast<std::int64_t>(src.size()));
}

void float_to_half(std::span<const float> src, std::span<half> dst) {
  STOF_EXPECTS(src.size() == dst.size(), "panel size mismatch");
  core::note_kernel_dispatch("exec.dispatch.float_to_half.calls");
  core::kernels().float_to_half(src.data(), dst.data(),
                                static_cast<std::int64_t>(src.size()));
}

void sgemm_accumulate(const float* a, const float* b, float* c,
                      std::int64_t rows, std::int64_t k, std::int64_t n) {
  core::note_kernel_dispatch("exec.dispatch.sgemm_accumulate.calls");
  core::kernels().sgemm_accumulate(a, b, c, rows, k, n);
}

}  // namespace stof::packed
