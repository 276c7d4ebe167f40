#include "stof/ops/fused.hpp"

#include <cmath>

#include "stof/core/check.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/parallel/parallel_for.hpp"

namespace stof::ops {

// ---- Bias + LayerNorm -------------------------------------------------------

void fused_bias_layernorm(const TensorH& x, const TensorH& bias,
                          const TensorH& gamma, const TensorH& beta,
                          TensorH& y, float eps) {
  STOF_EXPECTS(x.shape().rank() == 2);
  const std::int64_t rows = x.shape()[0];
  const std::int64_t n = x.shape()[1];
  STOF_EXPECTS(bias.shape() == (Shape{n}));
  STOF_EXPECTS(gamma.shape() == (Shape{n}) && beta.shape() == (Shape{n}));
  STOF_EXPECTS(y.shape() == x.shape());

  parallel_for(0, rows, [&](std::int64_t i) {
    // Single pass: biased values live in registers, as in the fused kernel.
    float mean = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      mean += float(x.at(i, j)) + float(bias.at(j));
    }
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      const float d = float(x.at(i, j)) + float(bias.at(j)) - mean;
      var += d * d;
    }
    var /= static_cast<float>(n);
    const float inv_std = 1.0f / std::sqrt(var + eps);
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = float(x.at(i, j)) + float(bias.at(j));
      y.at(i, j) = half((v - mean) * inv_std * float(gamma.at(j)) +
                        float(beta.at(j)));
    }
  });
}

gpusim::KernelCost fused_bias_layernorm_cost(std::int64_t rows,
                                             std::int64_t n,
                                             const NormParams& p,
                                             const gpusim::DeviceSpec& dev) {
  // Same reduction structure as LayerNorm but reads x exactly once and
  // never materializes the biased intermediate.
  gpusim::KernelCost c = layernorm_cost(rows, n, p, dev);
  c.cuda_flops += static_cast<double>(rows * n);  // the adds
  return c;
}

std::vector<gpusim::KernelCost> detached_bias_layernorm_cost(
    std::int64_t rows, std::int64_t n, const EwParams& ew,
    const NormParams& nrm, const gpusim::DeviceSpec& dev) {
  const double bytes = static_cast<double>(rows * n) * 2.0;
  std::vector<gpusim::KernelCost> seq = {
      elementwise_cost(rows * n, 1.0, bytes, bytes, ew, dev),  // bias
      layernorm_cost(rows, n, nrm, dev),                       // layernorm
  };
  // Detached operators run eagerly: each pays framework dispatch.
  for (auto& c : seq) c.dispatch_us = dev.dispatch_overhead_us;
  return seq;
}

// ---- GEMM + LayerNorm --------------------------------------------------------

gpusim::KernelCost fused_gemm_layernorm_cost(const GemmDims& dims,
                                             const GemmParams& p,
                                             const gpusim::DeviceSpec& dev) {
  // The LayerNorm epilogue needs the whole output row per block, so the
  // template runs with an effective BLOCK_N of n: B is re-read once per row
  // block, and a (BLOCK_M x n) FP32 row buffer joins the stage buffers in
  // shared memory.  That buffer is what destroys occupancy at large n.
  const double m = static_cast<double>(dims.m);
  const double n = static_cast<double>(dims.n);
  const double k = static_cast<double>(dims.k);
  const double batch = static_cast<double>(dims.batch);
  constexpr double kElem = 2.0;

  gpusim::KernelCost c;
  c.tc_flops = 2.0 * batch * m * n * k;
  c.cuda_flops = 8.0 * batch * m * n;  // the normalization epilogue

  const double grid_m = std::ceil(m / p.block_m);
  c.gmem_read_bytes =
      gpusim::effective_operand_bytes(batch * m * k * kElem, 1.0, dev) +
      gpusim::effective_operand_bytes(k * n * kElem, batch * grid_m, dev);
  c.gmem_write_bytes = batch * m * n * kElem;
  c.smem_bytes = batch * (m * k + grid_m * k * n) * kElem;

  const std::int64_t stage_smem =
      static_cast<std::int64_t>(p.num_stages) *
      (static_cast<std::int64_t>(p.block_m) + p.block_n) * p.block_k * 2;
  const std::int64_t row_buffer =
      static_cast<std::int64_t>(p.block_m) * dims.n * 4;  // FP32 accumulators
  const auto occ = gpusim::occupancy(dev, stage_smem + row_buffer, p.num_warps);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks = static_cast<std::int64_t>(batch * grid_m);
  c.overlap = std::min(0.9, 0.45 + 0.15 * p.num_stages);
  return c;
}

std::vector<gpusim::KernelCost> detached_gemm_layernorm_cost(
    const GemmDims& dims, const GemmParams& gp, const NormParams& nrm,
    const gpusim::DeviceSpec& dev) {
  std::vector<gpusim::KernelCost> seq = {
      gemm_cost(dims, gp, dev),
      layernorm_cost(dims.batch * dims.m, dims.n, nrm, dev),
  };
  for (auto& c : seq) c.dispatch_us = dev.dispatch_overhead_us;
  return seq;
}

// ---- GEMM + GEMM ---------------------------------------------------------------

gpusim::KernelCost fused_gemm_gemm_cost(const GemmChainDims& dims,
                                        const GemmParams& p,
                                        const gpusim::DeviceSpec& dev) {
  const double m = static_cast<double>(dims.m);
  const double k = static_cast<double>(dims.k);
  const double n1 = static_cast<double>(dims.n1);
  const double n2 = static_cast<double>(dims.n2);
  const double batch = static_cast<double>(dims.batch);
  constexpr double kElem = 2.0;

  gpusim::KernelCost c;
  // Chimera-style schedule: block (i, j2) computes the full intermediate
  // row panel (BLOCK_M x n1) on-chip and contracts it against B2's j2-tile.
  // Splitting over n2 keeps the grid populated at small m, but the panel is
  // recomputed once per column tile — the redundant FLOPs that make CI+CI
  // fusion lose at large batch*seq (paper §3.2).
  const double grid_m = std::ceil(m / p.block_m);
  const double grid_n2 = std::ceil(n2 / p.block_n);
  c.tc_flops = 2.0 * batch * m * (grid_n2 * k * n1 + n1 * n2);
  c.gmem_read_bytes =
      gpusim::effective_operand_bytes(batch * m * k * kElem, grid_n2, dev) +
      gpusim::effective_operand_bytes(k * n1 * kElem,
                                      batch * grid_m * grid_n2, dev) +
      gpusim::effective_operand_bytes(n1 * n2 * kElem, batch * grid_m, dev);
  c.gmem_write_bytes = batch * m * n2 * kElem;
  c.smem_bytes =
      batch * grid_n2 * (m * k + grid_m * k * n1) * kElem +
      batch * grid_m * n1 * n2 * kElem;

  const std::int64_t stage_smem =
      static_cast<std::int64_t>(p.num_stages) *
      (static_cast<std::int64_t>(p.block_m) + p.block_n) * p.block_k * 2;
  const std::int64_t panel =
      static_cast<std::int64_t>(p.block_m) * dims.n1 * 2;  // FP16 row panel
  const auto occ = gpusim::occupancy(dev, stage_smem + panel, p.num_warps);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks = static_cast<std::int64_t>(batch * grid_m * grid_n2);
  c.overlap = std::min(0.9, 0.45 + 0.15 * p.num_stages);
  return c;
}

std::vector<gpusim::KernelCost> detached_gemm_gemm_cost(
    const GemmChainDims& dims, const GemmParams& gp,
    const gpusim::DeviceSpec& dev) {
  std::vector<gpusim::KernelCost> seq = {
      gemm_cost({dims.batch, dims.m, dims.n1, dims.k}, gp, dev),
      gemm_cost({dims.batch, dims.m, dims.n2, dims.n1}, gp, dev),
  };
  for (auto& c : seq) c.dispatch_us = dev.dispatch_overhead_us;
  return seq;
}

double sequence_time_us(const std::vector<gpusim::KernelCost>& seq,
                        const gpusim::DeviceSpec& dev) {
  double total = 0;
  for (const auto& c : seq) total += gpusim::estimate_time_us(c, dev);
  return total;
}

}  // namespace stof::ops
