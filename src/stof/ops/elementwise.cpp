#include "stof/ops/elementwise.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/ops/gemm.hpp"  // gelu()
#include "stof/ops/row_blocks.hpp"

namespace stof::ops {

namespace {

/// Every half -> GELU(half) result: entry i == half(gelu(float(half i))),
/// built once from ops::gelu, so a lookup equals the per-element formula
/// bit for bit (ggml's table_gelu_f16 idiom).
const half* gelu_table() {
  static const std::vector<half> table = [] {
    std::vector<half> t(65536);
    for (std::uint32_t bits = 0; bits < 65536; ++bits) {
      t[bits] = half(gelu(half::to_float(static_cast<std::uint16_t>(bits))));
    }
    return t;
  }();
  return table.data();
}

}  // namespace

void bias_add(const TensorH& x, const TensorH& bias, TensorH& y) {
  STOF_EXPECTS(x.shape().rank() == 2, "x must be (rows, n)");
  const std::int64_t rows = x.shape()[0];
  const std::int64_t n = x.shape()[1];
  STOF_EXPECTS(bias.shape() == (Shape{n}), "bias must be (n)");
  STOF_EXPECTS(y.shape() == x.shape());
  std::vector<float> b(static_cast<std::size_t>(n));
  detail::to_float(bias.data(), b);
  const std::span<const half> src = x.data();
  const std::span<half> dst = y.data();
  const auto block = [&](std::int64_t lo, std::int64_t hi) {
    const auto off = static_cast<std::size_t>(lo * n);
    const std::span<float> v = detail::staging(0, (hi - lo) * n);
    detail::to_float(src.subspan(off, v.size()), v);
    for (std::size_t i = 0; i < v.size(); i += b.size()) {
      for (std::size_t j = 0; j < b.size(); ++j) v[i + j] = v[i + j] + b[j];
    }
    detail::to_half(v, dst.subspan(off, v.size()));
  };
  const std::int64_t blocks =
      detail::for_blocks(rows, detail::rows_per_block(n), block);
  detail::note_conversions(blocks + 1, blocks);
}

void relu(const TensorH& x, TensorH& y) {
  STOF_EXPECTS(y.shape() == x.shape());
  const std::span<const half> src = x.data();
  const std::span<half> dst = y.data();
  const auto block = [&](std::int64_t lo, std::int64_t hi) {
    const auto off = static_cast<std::size_t>(lo);
    const std::span<float> v = detail::staging(0, hi - lo);
    detail::to_float(src.subspan(off, v.size()), v);
    for (float& e : v) e = std::max(0.0f, e);
    detail::to_half(v, dst.subspan(off, v.size()));
  };
  const std::int64_t blocks =
      detail::for_blocks(x.numel(), detail::kBlockElems, block);
  detail::note_conversions(blocks, blocks);
}

void gelu_op(const TensorH& x, TensorH& y) {
  STOF_EXPECTS(y.shape() == x.shape());
  const half* table = gelu_table();
  const std::span<const half> src = x.data();
  const std::span<half> dst = y.data();
  detail::for_blocks(x.numel(), detail::kBlockElems,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (auto i = static_cast<std::size_t>(lo);
                            i < static_cast<std::size_t>(hi); ++i) {
                         dst[i] = table[src[i].bits()];
                       }
                     });
}

void residual_add(const TensorH& a, const TensorH& b, TensorH& y) {
  STOF_EXPECTS(a.shape() == b.shape() && y.shape() == a.shape());
  const std::span<const half> sa = a.data();
  const std::span<const half> sb = b.data();
  const std::span<half> dst = y.data();
  const auto block = [&](std::int64_t lo, std::int64_t hi) {
    const auto off = static_cast<std::size_t>(lo);
    const std::span<float> va = detail::staging(0, hi - lo);
    const std::span<float> vb = detail::staging(1, hi - lo);
    detail::to_float(sa.subspan(off, va.size()), va);
    detail::to_float(sb.subspan(off, vb.size()), vb);
    for (std::size_t i = 0; i < va.size(); ++i) va[i] = va[i] + vb[i];
    detail::to_half(va, dst.subspan(off, va.size()));
  };
  const std::int64_t blocks =
      detail::for_blocks(a.numel(), detail::kBlockElems, block);
  detail::note_conversions(2 * blocks, blocks);
}

gpusim::KernelCost elementwise_cost(std::int64_t elements,
                                    double flops_per_element,
                                    double read_bytes, double write_bytes,
                                    const EwParams& p,
                                    const gpusim::DeviceSpec& dev) {
  STOF_EXPECTS(elements > 0);
  STOF_EXPECTS(p.block_size >= 32 && p.block_size <= 1024);
  gpusim::KernelCost c;
  c.cuda_flops = static_cast<double>(elements) * flops_per_element;
  c.gmem_read_bytes = read_bytes;
  c.gmem_write_bytes = write_bytes;
  // Elementwise kernels use no shared memory; occupancy is warp limited.
  const int warps = p.block_size / 32;
  const auto occ = gpusim::occupancy(dev, 0, warps);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  const std::int64_t per_block =
      static_cast<std::int64_t>(p.block_size) * p.items_per_thread;
  c.grid_blocks = (elements + per_block - 1) / per_block;
  c.overlap = 0.85;  // streaming loads pipeline well
  return c;
}

std::vector<EwParams> elementwise_param_space() {
  std::vector<EwParams> space;
  for (int bs : {128, 256, 512, 1024}) {
    for (int ipt : {1, 2, 4, 8}) space.push_back({bs, ipt});
  }
  return space;
}

}  // namespace stof::ops
