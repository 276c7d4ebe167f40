// Exhaustive feasibility and sanity sweeps over every template parameter
// space on both devices: costs must be well-formed, at least one setting of
// every space must launch, and the best-of-space must beat the worst by a
// meaningful margin (otherwise tuning would be pointless).
#include <gtest/gtest.h>

#include <tuple>

#include "stof/ops/fused.hpp"

namespace stof::ops {
namespace {

class DeviceSweep : public ::testing::TestWithParam<gpusim::DeviceSpec> {};

TEST_P(DeviceSweep, GemmSpaceWellFormed) {
  const auto dev = GetParam();
  const GemmDims dims{1, 1024, 768, 768};
  int feasible = 0;
  double best = 1e300, worst = 0;
  for (const auto& p : gemm_param_space()) {
    const auto c = gemm_cost(dims, p, dev);
    EXPECT_GE(c.occupancy, 0.0);
    EXPECT_LE(c.occupancy, 1.0);
    EXPECT_GT(c.tc_flops, 0.0);
    if (c.occupancy <= 0) continue;
    ++feasible;
    const double t = gpusim::estimate_time_us(c, dev);
    EXPECT_GT(t, 0.0);
    best = std::min(best, t);
    worst = std::max(worst, t);
  }
  EXPECT_GT(feasible, 10) << dev.name;
  EXPECT_GT(worst / best, 1.5)
      << dev.name << ": parameter choice should matter";
}

TEST_P(DeviceSweep, FusedGemmLnSpaceHasFeasibleSettings) {
  const auto dev = GetParam();
  for (const std::int64_t n : {256, 512, 1024}) {
    int feasible = 0;
    for (const auto& p : gemm_param_space()) {
      if (fused_gemm_layernorm_cost({1, 2048, n, n}, p, dev).occupancy > 0) {
        ++feasible;
      }
    }
    EXPECT_GT(feasible, 0) << dev.name << " n=" << n;
  }
}

TEST_P(DeviceSweep, FusedChainSpaceHasFeasibleSettings) {
  const auto dev = GetParam();
  int feasible = 0;
  for (const auto& p : gemm_param_space()) {
    if (fused_gemm_gemm_cost({1, 1024, 768, 3072, 768}, p, dev).occupancy >
        0) {
      ++feasible;
    }
  }
  EXPECT_GT(feasible, 0) << dev.name;
}

TEST_P(DeviceSweep, ElementwiseAndNormSpacesAlwaysLaunch) {
  const auto dev = GetParam();
  for (const auto& p : elementwise_param_space()) {
    const auto c = elementwise_cost(1 << 20, 1.0, 2e6, 2e6, p, dev);
    EXPECT_GT(c.occupancy, 0.0) << dev.name;
  }
  for (const auto& p : norm_param_space()) {
    const auto c = layernorm_cost(4096, 1024, p, dev);
    EXPECT_GT(c.occupancy, 0.0) << dev.name;
  }
}

TEST_P(DeviceSweep, DeeperPipelinesImproveOverlap) {
  const auto dev = GetParam();
  GemmParams shallow{64, 64, 32, 4, 2};
  GemmParams deep{64, 64, 32, 4, 4};
  EXPECT_GT(gemm_cost({1, 512, 512, 512}, deep, dev).overlap,
            gemm_cost({1, 512, 512, 512}, shallow, dev).overlap);
}

TEST_P(DeviceSweep, CostRejectsDegenerateProblems) {
  const auto dev = GetParam();
  EXPECT_THROW(gemm_cost({1, 0, 64, 64}, GemmParams{}, dev), Error);
  EXPECT_THROW(gemm_cost({0, 64, 64, 64}, GemmParams{}, dev), Error);
  EXPECT_THROW(elementwise_cost(0, 1.0, 1.0, 1.0, EwParams{}, dev), Error);
  EXPECT_THROW(layernorm_cost(0, 64, NormParams{}, dev), Error);
  EwParams bad;
  bad.block_size = 7;  // not a warp multiple / below minimum
  EXPECT_THROW(elementwise_cost(64, 1.0, 1.0, 1.0, bad, dev), Error);
}

INSTANTIATE_TEST_SUITE_P(BothGpus, DeviceSweep,
                         ::testing::Values(gpusim::rtx4090(), gpusim::a100()),
                         [](const auto& info) { return info.param.name; });

// ---- Epilogue semantics across the GEMM param space ----------------------------

TEST(GemmEpilogues, CostIndependentOfEpilogueKind) {
  // Register-level epilogues are free in the cost model: the tuner must
  // not be able to "optimize" by dropping the bias.
  const auto dev = gpusim::a100();
  const auto plain = gemm_cost({1, 256, 256, 256}, GemmParams{}, dev);
  // (Cost function takes no epilogue parameter — this asserts the design.)
  EXPECT_GT(plain.tc_flops, 0.0);
}

TEST(GemmEpilogues, FunctionalEpiloguesComposable) {
  Rng rng(31);
  TensorH a(Shape{1, 8, 8}), w(Shape{8, 8}), bias(Shape{8});
  a.fill_random(rng);
  w.fill_random(rng);
  bias.fill_random(rng);
  TensorH relu_out(Shape{1, 8, 8}), manual(Shape{1, 8, 8});
  gemm(a, w.to_float(), relu_out, Epilogue::kBiasRelu, &bias);
  gemm(a, w.to_float(), manual, Epilogue::kBias, &bias);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(float(relu_out.at(0, i, j)),
                  std::max(0.0f, float(manual.at(0, i, j))), 5e-2);
    }
  }
}

}  // namespace
}  // namespace stof::ops
