#include "stof/baselines/mha_methods.hpp"

#include "stof/gpusim/occupancy.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/unified.hpp"
#include "stof/ops/elementwise.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/ops/normalize.hpp"

namespace stof::baselines {

std::string to_string(Method method) {
  switch (method) {
    case Method::kPytorchNative: return "PyTorch-Native";
    case Method::kPytorchCompile: return "PyTorch-Compile";
    case Method::kFlashAttention2: return "FlashAttention2";
    case Method::kFlexAttention: return "FlexAttention";
    case Method::kByteTransformer: return "ByteTransformer";
    case Method::kMcfuser: return "MCFuser";
    case Method::kBolt: return "Bolt";
    case Method::kStof: return "STOF";
  }
  return "unknown";
}

const std::vector<Method>& mha_methods() {
  static const std::vector<Method> methods = {
      Method::kPytorchNative,  Method::kPytorchCompile,
      Method::kFlashAttention2, Method::kFlexAttention,
      Method::kByteTransformer, Method::kMcfuser,
      Method::kStof,
  };
  return methods;
}

namespace {

using gpusim::KernelCost;

bool fa2_native_pattern(masks::PatternKind pattern) {
  return pattern == masks::PatternKind::kCausal ||
         pattern == masks::PatternKind::kSlidingWindow ||
         pattern == masks::PatternKind::kDense;
}

// PyTorch Native: four detached eager kernels with dense score round
// trips; each pays framework dispatch on top of the launch.
MhaSimResult simulate_native(const mha::MhaDims& dims, gpusim::Stream& s) {
  const std::int64_t bh = dims.instances();
  const std::int64_t n = dims.seq_len;
  const std::int64_t d = dims.head_size;
  const ops::GemmParams gp;
  const double dispatch = s.device().dispatch_overhead_us;
  const auto eager = [dispatch](gpusim::KernelCost c) {
    c.dispatch_us = dispatch;
    return c;
  };

  s.launch("native.qk_gemm",
           eager(ops::gemm_cost({bh, n, n, d}, gp, s.device())));
  // Mask subtract: read scores + dense mask, write scores.
  const double score_bytes = static_cast<double>(bh) * n * n * 2.0;
  const double mask_bytes = static_cast<double>(n) * n * 2.0;
  s.launch("native.mask_sub",
           eager(ops::elementwise_cost(bh * n * n, 1.0,
                                       score_bytes + mask_bytes, score_bytes,
                                       ops::EwParams{}, s.device())));
  s.launch("native.softmax",
           eager(ops::softmax_cost(bh * n, n, /*with_mask=*/false,
                                   ops::NormParams{}, s.device())));
  s.launch("native.pv_gemm",
           eager(ops::gemm_cost({bh, n, d, n}, gp, s.device())));
  return {true, "", s.total_us()};
}

// FlashAttention2: one fused kernel at fixed (128, 64) tiling; block
// skipping only for natively supported patterns.
MhaSimResult simulate_fa2(const mha::MhaDims& dims,
                          masks::PatternKind pattern, sparse::BsrCache& cache,
                          gpusim::Stream& s) {
  const mha::BlockwiseParams params{128, 64, /*num_warps=*/8};
  const sparse::BsrMask& bsr = cache.at(128, 64);
  KernelCost c;
  if (fa2_native_pattern(pattern)) {
    c = mha::blockwise_cost(dims, bsr, params, s.device());
  } else {
    // Unsupported pattern: dense compute + in-kernel mask subtract.
    const sparse::BsrMask& dense_bsr =
        cache.at(128, 64);  // used only for grid geometry
    c = mha::blockwise_cost(dims, dense_bsr, params, s.device());
    const double all_blocks =
        static_cast<double>(dense_bsr.rows()) * dense_bsr.cols();
    const double valid = static_cast<double>(dense_bsr.valid_count());
    const double scale_up = valid > 0 ? all_blocks / valid : 1.0;
    const double bh = static_cast<double>(dims.instances());
    c.tc_flops *= scale_up;  // no skipping: every block computed
    c.smem_bytes *= scale_up;
    c.gmem_read_bytes *= scale_up;
    // Dense mask streamed and subtracted inside the kernel.
    c.gmem_read_bytes +=
        static_cast<double>(dims.seq_len) * dims.seq_len * 2.0;
    c.cuda_flops += bh * static_cast<double>(dims.seq_len) * dims.seq_len;
  }
  s.launch("fa2.fused_mha", c);
  return {true, "", s.total_us()};
}

// PyTorch Compile: dispatches FA2 plus a small guard/prologue kernel.
MhaSimResult simulate_compile(const mha::MhaDims& dims,
                              masks::PatternKind pattern,
                              sparse::BsrCache& cache, gpusim::Stream& s) {
  KernelCost guard;  // graph-guard + layout prologue: launch-latency only
  guard.gmem_read_bytes = 1024;
  s.launch("compile.guard", guard);
  return simulate_fa2(dims, pattern, cache, s);
}

// FlexAttention: arbitrary-pattern block mask at fixed coarse (128, 128)
// granularity; partial blocks recompute the score_mod per element.
MhaSimResult simulate_flex(const mha::MhaDims& dims, sparse::BsrCache& cache,
                           gpusim::Stream& s) {
  const mha::BlockwiseParams params{128, 128, /*num_warps=*/8};
  const sparse::BsrMask& bsr = cache.at(128, 128);
  KernelCost c = mha::blockwise_cost(dims, bsr, params, s.device());
  // score_mod recomputation on every element of every partial block
  // (instead of STOF's deduplicated broadcast bitmaps).
  const double bh = static_cast<double>(dims.instances());
  c.cuda_flops += bh * static_cast<double>(bsr.part_count()) * 128.0 * 128.0 * 4.0;
  // Triton codegen: shallower pipelining than the hand-tuned kernel.
  c.overlap = 0.75;
  s.launch("flex.fused_mha", c);
  return {true, "", s.total_us()};
}

// ByteTransformer: on-chip score tile, dense, seq_len <= 1024 only.
MhaSimResult simulate_byte(const mha::MhaDims& dims, gpusim::Stream& s) {
  if (dims.seq_len > 1024) {
    return {false, "sequence length > 1024 unsupported", 0};
  }
  const std::int64_t bh = dims.instances();
  const double n = static_cast<double>(dims.seq_len);
  const double d = static_cast<double>(dims.head_size);
  KernelCost c;
  c.tc_flops = 2.0 * bh * n * n * d * 2.0;
  c.cuda_flops = bh * n * n * 6.0;  // mask subtract + softmax on-chip
  c.gmem_read_bytes = bh * 3.0 * n * d * 2.0 + n * n * 2.0;  // QKV + mask
  c.gmem_write_bytes = bh * n * d * 2.0;
  c.smem_bytes = bh * (2.0 * n * d + n * n) * 2.0;
  // Short sequences hold the score tile fully on-chip; longer ones use the
  // grouped-GEMM path over 256-column panels (paper §2.2).
  const std::int64_t tile_rows = std::min<std::int64_t>(dims.seq_len, 64);
  const std::int64_t panel = std::min<std::int64_t>(dims.seq_len, 256);
  const std::int64_t req_smem =
      (tile_rows * panel + 2 * panel * dims.head_size) * 2;
  const auto occ = gpusim::occupancy(s.device(), req_smem, 8);
  if (occ.blocks_per_sm == 0) {
    return {false, "score tile exceeds shared memory", 0};
  }
  c.occupancy = occ.fraction;
  c.blocks_per_sm = occ.blocks_per_sm;
  c.grid_blocks = bh * ((dims.seq_len + tile_rows - 1) / tile_rows);
  c.overlap = 0.8;
  s.launch("byte.fused_mha", c);
  return {true, "", s.total_us()};
}

// MCFuser: loop-fused GEMM chain with FP32 score workspace in HBM.
MhaSimResult simulate_mcfuser(const mha::MhaDims& dims, gpusim::Stream& s) {
  const std::int64_t bh = dims.instances();
  const double n = static_cast<double>(dims.seq_len);
  const double d = static_cast<double>(dims.head_size);
  const double workspace =
      static_cast<double>(bh) * n * n * 4.0 * 3.0;  // triple FP32 buffers
  if (workspace > 0.85 * static_cast<double>(s.device().dram_bytes)) {
    return {false, "score workspace exceeds device memory", 0};
  }
  KernelCost c;
  c.tc_flops = 2.0 * bh * n * n * d * 2.0;
  c.cuda_flops = bh * n * n * 7.0;  // mask subtract + softmax over workspace
  c.gmem_read_bytes =
      bh * 3.0 * n * d * 2.0 + n * n * 2.0 + bh * n * n * 4.0;
  c.gmem_write_bytes = bh * n * d * 2.0 + bh * n * n * 4.0;
  c.smem_bytes = bh * n * n * 4.0;
  // Loop-structure scheduling without hardware details (paper §2.2):
  // bank conflicts unaddressed, modest occupancy, shallow pipeline.
  c.bank_conflict_factor = 2.0;
  c.occupancy = 0.35;
  c.blocks_per_sm = 1;
  c.grid_blocks = bh * ((dims.seq_len + 63) / 64);
  c.overlap = 0.5;
  s.launch("mcfuser.fused_chain", c);
  return {true, "", s.total_us()};
}

MhaSimResult simulate_stof(const mha::MhaDims& dims, sparse::BsrCache& cache,
                           gpusim::Stream& s) {
  mha::UnifiedMha mha(dims, cache.mask(), s.device());
  mha.simulate(s);
  return {true, "", s.total_us()};
}

}  // namespace

MhaSimResult simulate_mha(Method method, const mha::MhaDims& dims,
                          masks::PatternKind pattern, sparse::BsrCache& cache,
                          gpusim::Stream& stream) {
  dims.validate();
  STOF_EXPECTS(cache.mask().seq_len() == dims.seq_len,
               "mask must match seq_len");
  switch (method) {
    case Method::kPytorchNative: return simulate_native(dims, stream);
    case Method::kPytorchCompile:
      return simulate_compile(dims, pattern, cache, stream);
    case Method::kFlashAttention2:
      return simulate_fa2(dims, pattern, cache, stream);
    case Method::kFlexAttention: return simulate_flex(dims, cache, stream);
    case Method::kByteTransformer: return simulate_byte(dims, stream);
    case Method::kMcfuser: return simulate_mcfuser(dims, stream);
    case Method::kBolt:
      return {false, "Bolt has no MHA-specific optimization (paper §5.1.2)",
              0};
    case Method::kStof: return simulate_stof(dims, cache, stream);
  }
  STOF_CHECK(false, "unreachable");
}

}  // namespace stof::baselines
