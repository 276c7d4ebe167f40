#include "stof/ops/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/core/packed.hpp"
#include "stof/gpusim/occupancy.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::ops {

float gelu(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  return 0.5f * x * (1.0f + std::tanh(kSqrt2OverPi * (x + 0.044715f * x * x * x)));
}

namespace {

float apply_epilogue(float acc, Epilogue ep, float bias) {
  switch (ep) {
    case Epilogue::kNone: return acc;
    case Epilogue::kBias: return acc + bias;
    case Epilogue::kBiasRelu: return std::max(0.0f, acc + bias);
    case Epilogue::kBiasGelu: return gelu(acc + bias);
  }
  return acc;
}

/// Validated raw-pointer view of one GEMM problem (shapes checked by the
/// public entry points; the kernels below index with plain offsets).
struct GemmView {
  const half* a = nullptr;     ///< (batch, m, k) row-major
  const float* b = nullptr;    ///< (k, n) or (batch, k, n) row-major
  half* c = nullptr;           ///< (batch, m, n) row-major
  const half* bias = nullptr;  ///< (n) when the epilogue uses it
  std::int64_t batch = 1;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  bool batched_b = false;
  Epilogue epilogue = Epilogue::kNone;
};

/// Convert the A panel to FP32 (activations change every call), run the
/// cache-blocked accumulation microkernel over B's FP32 values per row
/// block, apply the epilogue in FP32 and convert the output panel back to
/// half.  Accumulation order and final
/// rounding match the scalar reference (k ascending per element, one half
/// rounding) bit for bit.  MAC counts depend only on the problem shape.
void run(const GemmView& v) {
  if (telemetry::enabled()) {
    telemetry::count("sim.ops.gemm_calls");
    telemetry::count("sim.ops.gemm_macs", v.batch * v.m * v.n * v.k);
  }
  telemetry::ScopedTimer timer("wall.ops.gemm_us");
  std::vector<float> a_pack(static_cast<std::size_t>(v.batch * v.m * v.k));
  packed::half_to_float({v.a, a_pack.size()}, a_pack);
  std::vector<float> bias_pack;
  if (v.epilogue != Epilogue::kNone) {
    bias_pack.resize(static_cast<std::size_t>(v.n));
    packed::half_to_float({v.bias, bias_pack.size()}, bias_pack);
  }

  constexpr std::int64_t kRowBlock = 64;
  const std::int64_t m_blocks = (v.m + kRowBlock - 1) / kRowBlock;
  parallel_for(0, v.batch * m_blocks, [&](std::int64_t task) {
    const std::int64_t bi = task / m_blocks;
    const std::int64_t row_lo = (task % m_blocks) * kRowBlock;
    const std::int64_t rows = std::min(kRowBlock, v.m - row_lo);

    std::vector<float> acc(static_cast<std::size_t>(rows * v.n), 0.0f);
    const float* a_panel = a_pack.data() + (bi * v.m + row_lo) * v.k;
    const float* b_panel = v.b + (v.batched_b ? bi * v.k * v.n : 0);
    packed::sgemm_accumulate(a_panel, b_panel, acc.data(), rows, v.k, v.n);

    if (v.epilogue != Epilogue::kNone) {
      for (std::int64_t r = 0; r < rows; ++r) {
        float* acc_row = acc.data() + r * v.n;
        for (std::int64_t ni = 0; ni < v.n; ++ni) {
          acc_row[ni] = apply_epilogue(acc_row[ni], v.epilogue,
                                       bias_pack[static_cast<std::size_t>(ni)]);
        }
      }
    }
    packed::float_to_half(acc, {v.c + (bi * v.m + row_lo) * v.n, acc.size()});
  });
}

GemmView validate(const TensorH& a, const TensorF& b, TensorH& c,
                  Epilogue epilogue, const TensorH* bias) {
  STOF_EXPECTS(a.shape().rank() == 3, "A must be (batch, m, k)");
  GemmView v;
  v.batch = a.shape()[0];
  v.m = a.shape()[1];
  v.k = a.shape()[2];

  v.batched_b = b.shape().rank() == 3;
  STOF_EXPECTS(v.batched_b || b.shape().rank() == 2,
               "B must be (k, n) or (batch, k, n)");
  v.n = v.batched_b ? b.shape()[2] : b.shape()[1];
  STOF_EXPECTS((v.batched_b ? b.shape()[1] : b.shape()[0]) == v.k,
               "inner dimensions must agree");
  if (v.batched_b) STOF_EXPECTS(b.shape()[0] == v.batch);
  STOF_EXPECTS(c.shape() == (Shape{v.batch, v.m, v.n}), "C shape mismatch");
  if (epilogue != Epilogue::kNone) {
    STOF_EXPECTS(bias != nullptr && bias->shape() == (Shape{v.n}),
                 "epilogue requires a (n) bias vector");
    v.bias = bias->data().data();
  }
  v.a = a.data().data();
  v.b = b.data().data();
  v.c = c.data().data();
  v.epilogue = epilogue;
  return v;
}

}  // namespace

void gemm(const TensorH& a, const TensorF& b, TensorH& c, Epilogue epilogue,
          const TensorH* bias) {
  run(validate(a, b, c, epilogue, bias));
}

void matmul2d(const TensorH& x, const TensorF& w, TensorH& y) {
  STOF_EXPECTS(x.shape().rank() == 2 && w.shape().rank() == 2);
  GemmView v;
  v.m = x.shape()[0];
  v.k = x.shape()[1];
  v.n = w.shape()[1];
  STOF_EXPECTS(w.shape()[0] == v.k, "matmul inner dimension mismatch");
  STOF_EXPECTS(y.shape() == (Shape{v.m, v.n}), "output shape mismatch");
  v.a = x.data().data();
  v.b = w.data().data();
  v.c = y.data().data();
  run(v);
}

gpusim::KernelCost gemm_cost(const GemmDims& dims, const GemmParams& p,
                             const gpusim::DeviceSpec& dev) {
  STOF_EXPECTS(dims.m > 0 && dims.n > 0 && dims.k > 0 && dims.batch > 0);
  const double m = static_cast<double>(dims.m);
  const double n = static_cast<double>(dims.n);
  const double k = static_cast<double>(dims.k);
  const double batch = static_cast<double>(dims.batch);
  constexpr double kElem = 2.0;  // FP16 bytes

  gpusim::KernelCost c;
  c.tc_flops = 2.0 * batch * m * n * k;

  // Each block streams BLOCK_M*K of A and K*BLOCK_N of B through shared
  // memory; DRAM sees each operand once per L2-sized working set.
  const double grid_m = std::ceil(m / p.block_m);
  const double grid_n = std::ceil(n / p.block_n);
  c.gmem_read_bytes =
      gpusim::effective_operand_bytes(batch * m * k * kElem, grid_n, dev) +
      gpusim::effective_operand_bytes(k * n * kElem, batch * grid_m, dev);
  c.gmem_write_bytes = batch * m * n * kElem;
  // Shared-memory traffic stays per-block (no L2 relief).
  c.smem_bytes = batch * (grid_n * m * k + grid_m * k * n) * kElem;

  // Stage buffers for A and B panels determine the SMEM footprint.
  const std::int64_t req_smem =
      static_cast<std::int64_t>(p.num_stages) *
      (static_cast<std::int64_t>(p.block_m) + p.block_n) * p.block_k * 2;
  const auto occ = gpusim::occupancy(dev, req_smem, p.num_warps);
  c.occupancy = occ.fraction;
  c.blocks_per_sm = std::max(1, occ.blocks_per_sm);
  c.grid_blocks = static_cast<std::int64_t>(batch * grid_m * grid_n);
  // Deeper pipelines hide more of the memory phase behind the MMA phase.
  c.overlap = std::min(0.95, 0.45 + 0.15 * p.num_stages);
  return c;
}

std::vector<GemmParams> gemm_param_space() {
  std::vector<GemmParams> space;
  for (int bm : {16, 32, 64, 128}) {
    for (int bn : {32, 64, 128}) {
      for (int bk : {16, 32, 64}) {
        for (int warps : {2, 4, 8}) {
          for (int stages : {2, 3, 4}) {
            space.push_back({bm, bn, bk, warps, stages});
          }
        }
      }
    }
  }
  return space;
}

}  // namespace stof::ops
