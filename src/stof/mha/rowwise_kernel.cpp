#include "stof/mha/rowwise_kernel.hpp"

#include <cmath>
#include <limits>

#include "stof/core/packed.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/parallel/parallel_for.hpp"

namespace stof::mha {

TensorH rowwise_attention(const MhaDims& dims, const TensorH& q,
                          const TensorH& k, const TensorH& v,
                          const sparse::RowwiseMask& mask) {
  STOF_EXPECTS(mask.seq_len() == dims.seq_len, "mask must match seq_len");
  TensorH out = make_output(dims, q, k, v);
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const float scale = dims.scale();

  // Widen K and V once per call: K/V rows are gathered by every query row
  // that attends to them, so the FP32 copies amortize across the whole
  // instance.  Both stay row-major — each gathered column dots one whole K
  // row and consumes one whole V row — and the arithmetic is the scalar
  // reference's, bit for bit.
  const auto k_wide = widen(k);
  const auto v_wide = widen(v);

  parallel_for_scratch(0, dims.instances() * n, [&](std::int64_t row,
                                                    ScratchArena& arena) {
    const std::int64_t bh = row / n;
    const std::int64_t kv = dims.kv_instance_of(bh);
    const std::int64_t i = row % n;
    const std::int64_t lo = mask.row_ptr()[static_cast<std::size_t>(i)];
    const std::int64_t hi = mask.row_ptr()[static_cast<std::size_t>(i) + 1];

    // Streaming softmax over the gathered columns: the warp keeps the
    // running max m, running denominator l, and the output accumulator,
    // rescaling on every new maximum exactly like the CUDA kernel.
    float m = -std::numeric_limits<float>::infinity();
    float l = 0.0f;
    auto acc = arena.alloc_zeroed(d);

    const float* kf = k_wide.get() + kv * n * d;
    const float* vf = v_wide.get() + kv * n * d;
    auto q_row = arena.alloc(d);
    packed::half_to_float(
        q.data().subspan(static_cast<std::size_t>((bh * n + i) * d),
                         q_row.size()),
        q_row);

    for (std::int64_t p = lo; p < hi; ++p) {
      const std::int64_t j = mask.col_idx()[static_cast<std::size_t>(p)];
      const float* k_row = kf + j * d;
      float dot = 0;
      for (std::int64_t e = 0; e < d; ++e) dot += q_row[e] * k_row[e];
      const float s = dot * scale;
      const float m_new = std::max(m, s);
      const float correction = (l == 0.0f) ? 0.0f : std::exp(m - m_new);
      const float w = std::exp(s - m_new);
      l = l * correction + w;
      const float* v_row = vf + j * d;
      for (std::int64_t e = 0; e < d; ++e) {
        acc[static_cast<std::size_t>(e)] =
            acc[static_cast<std::size_t>(e)] * correction + w * v_row[e];
      }
      m = m_new;
    }

    if (l == 0.0f) {
      for (std::int64_t e = 0; e < d; ++e) out.at(bh, i, e) = half(0.0f);
      return;  // fully masked row
    }
    const float inv = 1.0f / l;
    for (std::int64_t e = 0; e < d; ++e) {
      out.at(bh, i, e) = half(acc[static_cast<std::size_t>(e)] * inv);
    }
  });
  return out;
}

gpusim::KernelCost rowwise_cost(const MhaDims& dims,
                                const sparse::RowwiseMask& mask,
                                const RowwiseParams& p,
                                const gpusim::DeviceSpec& dev) {
  dims.validate();
  STOF_EXPECTS(p.warps_per_block >= 1 &&
               p.warps_per_block <= dev.max_warps_per_sm);
  const double instances = static_cast<double>(dims.instances());
  const double d = static_cast<double>(dims.head_size);
  const double valid = static_cast<double>(mask.valid_count());
  constexpr double kElem = 2.0;

  gpusim::KernelCost c;
  // Per valid element: d MACs for QK^T, d MACs for PV, ~6 flops of
  // streaming-softmax bookkeeping — all on CUDA cores, issued as packed
  // half2 math (two FP16 lanes per FP32 ALU slot, hence the 0.5 factor).
  c.cuda_flops = 0.5 * instances * valid * (4.0 * d + 6.0);
  // Q and the output are touched once.  K and V are gathered per valid
  // element, but neighbouring rows share segments, so DRAM traffic is
  // capped at a few L2 passes over the K/V footprint.
  const double kv_share =
      static_cast<double>(dims.kv_head_count()) /
      static_cast<double>(dims.heads);
  const double kv_gather = instances * valid * d * kElem * 2.0 * kv_share;
  const double kv_footprint = static_cast<double>(dims.kv_instances()) * 2.0 *
                              static_cast<double>(dims.seq_len) * d * kElem;
  c.gmem_read_bytes =
      instances * static_cast<double>(dims.seq_len) * d * kElem +  // Q
      std::min(kv_gather, 4.0 * kv_footprint) +
      static_cast<double>(mask.storage_bytes());
  c.gmem_write_bytes = instances * static_cast<double>(dims.seq_len) * d * kElem;
  c.smem_bytes = 0;  // warp-shuffle only: no shared memory at all

  const auto occ = gpusim::occupancy(dev, 0, p.warps_per_block);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks =
      (dims.total_rows() + p.warps_per_block - 1) / p.warps_per_block;
  c.overlap = 0.8;
  return c;
}

}  // namespace stof::mha
