// Memory-intensive elementwise operators (bias, activations, residual add).
//
// These are the paper's "MI" category: their simulated time is dominated by
// global-memory traffic, so the cost model charges bytes read/written at
// DRAM bandwidth plus a small CUDA-core FLOP term.  The tunable parameters
// (thread-block size, vector width) shift occupancy and are what the
// parameter-sampling stage of the tuner explores for MI segments.
//
// On the host each op runs over contiguous FP32 row blocks and rounds to
// half once, bit-identical to its per-element formula (see row_blocks.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"

namespace stof::ops {

/// Tunable launch parameters shared by elementwise kernels.
struct EwParams {
  int block_size = 256;       ///< threads per block
  int items_per_thread = 4;   ///< grid-stride vectorization factor

  friend bool operator==(const EwParams&, const EwParams&) = default;
};

/// y = x + bias (bias broadcast over rows). x, y: (rows, n); bias: (n).
void bias_add(const TensorH& x, const TensorH& bias, TensorH& y);

/// y = max(x, 0).
void relu(const TensorH& x, TensorH& y);

/// y = GELU(x), tanh approximation: half(gelu(float(x))) for every input,
/// read from a table of all 65,536 half values.
void gelu_op(const TensorH& x, TensorH& y);

/// y = a + b (residual connection).
void residual_add(const TensorH& a, const TensorH& b, TensorH& y);

/// Cost of one elementwise kernel touching `read_bytes`/`write_bytes` with
/// `flops_per_element` scalar work over `elements`.
gpusim::KernelCost elementwise_cost(std::int64_t elements,
                                    double flops_per_element,
                                    double read_bytes, double write_bytes,
                                    const EwParams& params,
                                    const gpusim::DeviceSpec& dev);

/// Candidate launch parameters for MI kernels.
std::vector<EwParams> elementwise_param_space();

}  // namespace stof::ops
