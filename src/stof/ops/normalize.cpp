#include "stof/ops/normalize.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/ops/row_blocks.hpp"

namespace stof::ops {

void layernorm(const TensorH& x, const TensorH& gamma, const TensorH& beta,
               TensorH& y, float eps) {
  STOF_EXPECTS(x.shape().rank() == 2, "x must be (rows, n)");
  const std::int64_t rows = x.shape()[0];
  const std::int64_t n = x.shape()[1];
  STOF_EXPECTS(gamma.shape() == (Shape{n}) && beta.shape() == (Shape{n}));
  STOF_EXPECTS(y.shape() == x.shape());

  std::vector<float> g(static_cast<std::size_t>(n));
  std::vector<float> b(static_cast<std::size_t>(n));
  detail::to_float(gamma.data(), g);
  detail::to_float(beta.data(), b);
  const std::span<const half> src = x.data();
  const std::span<half> dst = y.data();
  const auto block = [&](std::int64_t lo, std::int64_t hi) {
    const auto off = static_cast<std::size_t>(lo * n);
    const std::span<float> v = detail::staging(0, (hi - lo) * n);
    detail::to_float(src.subspan(off, v.size()), v);
    for (std::size_t r = 0; r < v.size(); r += g.size()) {
      float* row = v.data() + r;
      float mean = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) mean += row[j];
      mean /= static_cast<float>(n);
      float var = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) {
        const float d = row[j] - mean;
        var += d * d;
      }
      var /= static_cast<float>(n);
      const float inv_std = 1.0f / std::sqrt(var + eps);
      for (std::int64_t j = 0; j < n; ++j) {
        const float norm = (row[j] - mean) * inv_std;
        row[j] = norm * g[static_cast<std::size_t>(j)] +
                 b[static_cast<std::size_t>(j)];
      }
    }
    detail::to_half(v, dst.subspan(off, v.size()));
  };
  const std::int64_t blocks =
      detail::for_blocks(rows, detail::rows_per_block(n), block);
  detail::note_conversions(blocks + 2, blocks);
}

namespace {

gpusim::KernelCost row_reduce_cost(std::int64_t rows, std::int64_t n,
                                   double flops_per_element,
                                   double extra_read_bytes,
                                   const NormParams& p,
                                   const gpusim::DeviceSpec& dev) {
  STOF_EXPECTS(rows > 0 && n > 0);
  STOF_EXPECTS(p.block_size >= 32 && p.block_size <= 1024);
  STOF_EXPECTS(p.rows_per_block >= 1);
  const double elements = static_cast<double>(rows * n);
  constexpr double kElem = 2.0;  // FP16

  gpusim::KernelCost c;
  c.cuda_flops = elements * flops_per_element;
  c.gmem_read_bytes = elements * kElem + extra_read_bytes;
  c.gmem_write_bytes = elements * kElem;
  // The row is staged in shared memory for the two reduction passes.
  c.smem_bytes = 2.0 * elements * kElem;
  const int warps = p.block_size / 32;
  const auto occ = gpusim::occupancy(
      dev, static_cast<std::int64_t>(p.rows_per_block) * n * 2, warps);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks = (rows + p.rows_per_block - 1) / p.rows_per_block;
  c.overlap = 0.6;  // reduction passes partially serialize with loads
  return c;
}

}  // namespace

gpusim::KernelCost layernorm_cost(std::int64_t rows, std::int64_t n,
                                  const NormParams& p,
                                  const gpusim::DeviceSpec& dev) {
  // mean + variance + normalize: ~8 flops per element.
  return row_reduce_cost(rows, n, 8.0, 0.0, p, dev);
}

gpusim::KernelCost softmax_cost(std::int64_t rows, std::int64_t n,
                                bool with_mask, const NormParams& p,
                                const gpusim::DeviceSpec& dev) {
  // max + exp + sum + scale: ~5 flops per element; the mask operand is a
  // dense FP16 matrix the kernel streams alongside the scores.
  const double mask_bytes = with_mask ? static_cast<double>(rows * n) * 2.0 : 0.0;
  return row_reduce_cost(rows, n, 5.0, mask_bytes, p, dev);
}

std::vector<NormParams> norm_param_space() {
  std::vector<NormParams> space;
  for (int bs : {64, 128, 256, 512}) {
    for (int rpb : {1, 2, 4}) space.push_back({bs, rpb});
  }
  return space;
}

}  // namespace stof::ops
