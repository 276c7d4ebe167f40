// Row-wise normalization operators: LayerNorm and Softmax.
//
// Both are memory-intensive reductions over the hidden dimension.
// LayerNorm runs in the serving layer head; Softmax is costed only (the
// attention kernels fuse their own softmax).  Its masked variant prices the
// "mask subtraction" path of the baselines that cannot fuse sparse masks
// into attention: the kernel also streams the dense mask operand.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"

namespace stof::ops {

/// Tunable launch parameters for row-reduction kernels.
struct NormParams {
  int block_size = 256;   ///< threads cooperating on one (or more) rows
  int rows_per_block = 1;

  friend bool operator==(const NormParams&, const NormParams&) = default;
};

/// y = LayerNorm(x) * gamma + beta over the last dimension.
/// x, y: (rows, n); gamma, beta: (n).
void layernorm(const TensorH& x, const TensorH& gamma, const TensorH& beta,
               TensorH& y, float eps = 1e-5f);

/// Cost of a LayerNorm launch over (rows x n) FP16 elements.
gpusim::KernelCost layernorm_cost(std::int64_t rows, std::int64_t n,
                                  const NormParams& params,
                                  const gpusim::DeviceSpec& dev);

/// Cost of a (masked) softmax launch over (rows x n) scores; when
/// `with_mask` the kernel also streams the dense mask operand.
gpusim::KernelCost softmax_cost(std::int64_t rows, std::int64_t n,
                                bool with_mask, const NormParams& params,
                                const gpusim::DeviceSpec& dev);

/// Candidate launch parameters for row-reduction kernels.
std::vector<NormParams> norm_param_space();

}  // namespace stof::ops
