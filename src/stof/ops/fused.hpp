// Fused operator templates for the three mixes of the paper's Fig. 3:
//
//   * Bias + LayerNorm   (MI + MI)  — one pass over the rows, halving DRAM
//     traffic and saving a launch; essentially always profitable.
//   * GEMM + LayerNorm   (CI + MI)  — the LayerNorm epilogue needs a whole
//     output row resident per thread block, so the template pins
//     BLOCK_N = n.  At small hidden sizes the saved intermediate round-trip
//     dominates (large speedups); at large hidden sizes the row buffer
//     crushes occupancy and the fused kernel loses — exactly the
//     hidden-512-wins / hidden-1024-loses shape of Fig. 3.
//   * GEMM + GEMM        (CI + CI)  — the chain keeps the (BLOCK_M x n1)
//     intermediate on-chip, but every row block re-reads both weight
//     matrices.  With few row blocks (small batch*seq) the launch and
//     round-trip savings win; with many, the weight re-reads swamp them —
//     the paper's small-scale-only benefit for CI+CI fusion.
//
// Each mix has a cost function (used by the Fig. 3/4 benches and the
// fusion templates); detached cost helpers compose the unfused kernel
// sequence.  Bias + LayerNorm also has a functional implementation.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/ops/elementwise.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/ops/normalize.hpp"

namespace stof::ops {

// ---- Bias + LayerNorm (MI + MI) -------------------------------------------

/// y = LayerNorm(x + bias) * gamma + beta, computed in one pass.
void fused_bias_layernorm(const TensorH& x, const TensorH& bias,
                          const TensorH& gamma, const TensorH& beta,
                          TensorH& y, float eps = 1e-5f);

gpusim::KernelCost fused_bias_layernorm_cost(std::int64_t rows,
                                             std::int64_t n,
                                             const NormParams& params,
                                             const gpusim::DeviceSpec& dev);

/// Detached sequence: bias kernel + layernorm kernel (two launches).
std::vector<gpusim::KernelCost> detached_bias_layernorm_cost(
    std::int64_t rows, std::int64_t n, const EwParams& ew,
    const NormParams& nrm, const gpusim::DeviceSpec& dev);

// ---- GEMM + LayerNorm (CI + MI) --------------------------------------------

/// Cost of y = LayerNorm(a x b) * gamma + beta with a: (batch, m, k) and
/// b: (k, n).
gpusim::KernelCost fused_gemm_layernorm_cost(const GemmDims& dims,
                                             const GemmParams& params,
                                             const gpusim::DeviceSpec& dev);

std::vector<gpusim::KernelCost> detached_gemm_layernorm_cost(
    const GemmDims& dims, const GemmParams& gp, const NormParams& nrm,
    const gpusim::DeviceSpec& dev);

// ---- GEMM + GEMM (CI + CI) ---------------------------------------------------

/// Dims of the chain c = (a x b1) x b2 with a: (batch, m, k),
/// b1: (k, n1) and b2: (n1, n2); `n1` is the intermediate width.
struct GemmChainDims {
  std::int64_t batch = 1;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n1 = 0;
  std::int64_t n2 = 0;
};

gpusim::KernelCost fused_gemm_gemm_cost(const GemmChainDims& dims,
                                        const GemmParams& params,
                                        const gpusim::DeviceSpec& dev);

std::vector<gpusim::KernelCost> detached_gemm_gemm_cost(
    const GemmChainDims& dims, const GemmParams& gp,
    const gpusim::DeviceSpec& dev);

/// Total simulated time of a kernel sequence, in microseconds.
double sequence_time_us(const std::vector<gpusim::KernelCost>& seq,
                        const gpusim::DeviceSpec& dev);

}  // namespace stof::ops
