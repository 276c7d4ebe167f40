// General matrix multiply on the simulated GPU.
//
// Functional semantics: C[b] = A[b] x B[b] (+ optional bias / activation
// epilogue), FP16 operands with FP32 accumulation — the arithmetic path of
// a wmma HMMA tile.  The cost model accounts a CUTLASS/Triton-style tiled
// kernel: each (BLOCK_M x BLOCK_N) block streams K-panels of A and B
// through shared memory with `num_stages`-deep cp.async pipelining, so
// global traffic is M*N*K * (1/BLOCK_N + 1/BLOCK_M) elements and occupancy
// follows from the shared-memory footprint of the stage buffers.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"

namespace stof::ops {

/// Logical GEMM problem: batch x (m x k) * (k x n).
struct GemmDims {
  std::int64_t batch = 1;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
};

/// Tunable launch parameters of the tiled GEMM template.
struct GemmParams {
  int block_m = 64;
  int block_n = 64;
  int block_k = 32;
  int num_warps = 4;
  int num_stages = 2;

  friend bool operator==(const GemmParams&, const GemmParams&) = default;
};

/// Epilogue fused into the GEMM main loop (free at the register level).
enum class Epilogue { kNone, kBias, kBiasRelu, kBiasGelu };

/// C = A x B with optional epilogue.
/// A: (batch, m, k); B: (k, n) shared across the batch or (batch, k, n);
/// C: (batch, m, n); bias: (n) when the epilogue uses it.
/// B is FP32 and must hold exact widenings of half values (a model's
/// weights, widened once at load).  A's panel converts to FP32 per call;
/// the cache-blocked accumulation keeps the scalar reference's per-element
/// order, so the result is that reference's on B's half values, bit for bit.
void gemm(const TensorH& a, const TensorF& b, TensorH& c,
          Epilogue epilogue = Epilogue::kNone, const TensorH* bias = nullptr);

/// y = x (r, k) * w (k, n), FP32 accumulate, no epilogue — gemm() over a
/// single (r, k) batch.
void matmul2d(const TensorH& x, const TensorF& w, TensorH& y);

/// Simulated cost of one tiled GEMM launch.
gpusim::KernelCost gemm_cost(const GemmDims& dims, const GemmParams& params,
                             const gpusim::DeviceSpec& dev);

/// Candidate launch parameters explored by the tuner for this template.
std::vector<GemmParams> gemm_param_space();

/// GELU activation (tanh approximation), exposed for fused epilogues.
float gelu(float x);

}  // namespace stof::ops
