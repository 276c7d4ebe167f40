// Row-block scheduling and FP32 staging shared by the row-contiguous host
// ops (elementwise.cpp, normalize.cpp).
//
// Each op converts a block of whole rows to FP32 with the KernelTable's
// vector conversions, runs its arithmetic over the contiguous floats and
// converts the block back, rounding to half once.  Blocks hold at least
// kBlockElems elements, so a serving step's few dozen rows run inline on
// the caller and only large tensors fan out over the pool.  The
// conversions call the table directly and an op records its dispatch
// counts once (note_conversions): with telemetry on, each
// note_kernel_dispatch call takes two registry lookups, which would cost
// more than a small row block's conversion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "stof/core/half.hpp"
#include "stof/core/kernels.hpp"
#include "stof/parallel/parallel_for.hpp"

namespace stof::ops::detail {

inline constexpr std::int64_t kBlockElems = std::int64_t{1} << 14;

/// Whole rows of width `n` per block.
inline std::int64_t rows_per_block(std::int64_t n) {
  return std::max<std::int64_t>(1, kBlockElems / n);
}

/// body(lo, hi) for consecutive blocks of `per` items covering [0, count);
/// returns the block count.
template <typename Body>
std::int64_t for_blocks(std::int64_t count, std::int64_t per, Body&& body) {
  const std::int64_t blocks = (count + per - 1) / per;
  parallel_for(0, blocks, [&](std::int64_t b) {
    const std::int64_t lo = b * per;
    body(lo, std::min(count, lo + per));
  });
  return blocks;
}

/// dst = float(src), exact (KernelTable::half_to_float).
inline void to_float(std::span<const half> src, std::span<float> dst) {
  core::kernels().half_to_float(src.data(), dst.data(),
                                static_cast<std::int64_t>(dst.size()));
}

/// dst = half(src), round-to-nearest-even (KernelTable::float_to_half).
inline void to_half(std::span<const float> src, std::span<half> dst) {
  core::kernels().float_to_half(src.data(), dst.data(),
                                static_cast<std::int64_t>(src.size()));
}

/// Record one op's to_float / to_half calls in the dispatch counters.
inline void note_conversions(std::int64_t to_float_calls,
                             std::int64_t to_half_calls) {
  core::note_kernel_dispatch("exec.dispatch.half_to_float.calls",
                             to_float_calls);
  core::note_kernel_dispatch("exec.dispatch.float_to_half.calls",
                             to_half_calls);
}

/// Per-thread FP32 staging buffer `slot` (0 or 1) of `count` floats; it
/// grows on demand and is reused by every later call on the thread.
inline std::span<float> staging(int slot, std::int64_t count) {
  thread_local std::vector<float> buffers[2];
  std::vector<float>& b = buffers[slot];
  if (static_cast<std::int64_t>(b.size()) < count) {
    b.resize(static_cast<std::size_t>(count));
  }
  return {b.data(), static_cast<std::size_t>(count)};
}

}  // namespace stof::ops::detail
