// Unit + property tests for the operator library: functional correctness of
// every op, fused Bias+LayerNorm == detached numerics, and the cost-model
// shapes that reproduce the paper's Fig. 3 observations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <tuple>
#include <utility>

#include "stof/core/rng.hpp"
#include "stof/core/tensor.hpp"
#include "stof/ops/elementwise.hpp"
#include "stof/ops/fused.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/ops/normalize.hpp"

namespace stof::ops {
namespace {

// FP16 storage with FP32 accumulate keeps relative error ~2^-11 per
// rounding; accumulated over small test sizes this tolerance is generous.
constexpr double kTol = 5e-2;

TensorH random_tensor(Shape shape, std::uint64_t seed) {
  TensorH t(shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

// ---- GEMM -------------------------------------------------------------------

TEST(Gemm, MatchesNaiveReference) {
  const std::int64_t b = 2, m = 5, k = 7, n = 3;
  const TensorH a = random_tensor(Shape{b, m, k}, 1);
  const TensorH w = random_tensor(Shape{k, n}, 2);
  TensorH c(Shape{b, m, n});
  gemm(a, w.to_float(), c);
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float ref = 0;
        for (std::int64_t kk = 0; kk < k; ++kk)
          ref += float(a.at(bi, i, kk)) * float(w.at(kk, j));
        EXPECT_NEAR(float(c.at(bi, i, j)), ref, kTol);
      }
    }
  }
}

TEST(Gemm, BatchedBOperand) {
  const TensorH a = random_tensor(Shape{3, 4, 6}, 3);
  const TensorH w = random_tensor(Shape{3, 6, 5}, 4);
  TensorH c(Shape{3, 4, 5});
  gemm(a, w.to_float(), c);
  float ref = 0;
  for (std::int64_t kk = 0; kk < 6; ++kk)
    ref += float(a.at(2, 1, kk)) * float(w.at(2, kk, 3));
  EXPECT_NEAR(float(c.at(2, 1, 3)), ref, kTol);
}

TEST(Gemm, BiasEpilogue) {
  const TensorH a = random_tensor(Shape{1, 3, 4}, 5);
  const TensorH w = random_tensor(Shape{4, 2}, 6);
  TensorH bias(Shape{2});
  bias.at(0) = half(1.0f);
  bias.at(1) = half(-2.0f);
  TensorH plain(Shape{1, 3, 2}), biased(Shape{1, 3, 2});
  gemm(a, w.to_float(), plain);
  gemm(a, w.to_float(), biased, Epilogue::kBias, &bias);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(float(biased.at(0, i, 0)), float(plain.at(0, i, 0)) + 1.0f,
                kTol);
    EXPECT_NEAR(float(biased.at(0, i, 1)), float(plain.at(0, i, 1)) - 2.0f,
                kTol);
  }
}

TEST(Gemm, ReluAndGeluEpilogues) {
  const TensorH a = random_tensor(Shape{1, 4, 4}, 7);
  const TensorH w = random_tensor(Shape{4, 4}, 8);
  TensorH bias(Shape{4}, half(0.0f));
  TensorH plain(Shape{1, 4, 4}), relu_out(Shape{1, 4, 4}),
      gelu_out(Shape{1, 4, 4});
  gemm(a, w.to_float(), plain);
  gemm(a, w.to_float(), relu_out, Epilogue::kBiasRelu, &bias);
  gemm(a, w.to_float(), gelu_out, Epilogue::kBiasGelu, &bias);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      const float p = float(plain.at(0, i, j));
      EXPECT_NEAR(float(relu_out.at(0, i, j)), std::max(0.0f, p), kTol);
      EXPECT_NEAR(float(gelu_out.at(0, i, j)), gelu(p), kTol);
    }
  }
}

TEST(Gemm, ShapeContractsEnforced) {
  TensorH a(Shape{1, 2, 3}), c(Shape{1, 2, 2});
  TensorF w(Shape{4, 2});
  EXPECT_THROW(gemm(a, w, c), Error);  // inner dim mismatch
  TensorF w2(Shape{3, 2});
  TensorH cbad(Shape{1, 2, 3});
  EXPECT_THROW(gemm(a, w2, cbad), Error);  // output shape mismatch
  TensorH cgood(Shape{1, 2, 2});
  EXPECT_THROW(gemm(a, w2, cgood, Epilogue::kBias, nullptr), Error);
}

// ---- Elementwise ------------------------------------------------------------

TEST(Elementwise, BiasAdd) {
  const TensorH x = random_tensor(Shape{4, 3}, 9);
  TensorH bias(Shape{3});
  for (std::int64_t j = 0; j < 3; ++j) bias.at(j) = half(float(j));
  TensorH y(Shape{4, 3});
  bias_add(x, bias, y);
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 3; ++j)
      EXPECT_NEAR(float(y.at(i, j)), float(x.at(i, j)) + float(j), kTol);
}

TEST(Elementwise, ReluClampsNegatives) {
  TensorH x(Shape{2, 2});
  x.at(0, 0) = half(-1.0f);
  x.at(0, 1) = half(2.0f);
  x.at(1, 0) = half(0.0f);
  x.at(1, 1) = half(-0.5f);
  TensorH y(Shape{2, 2});
  relu(x, y);
  EXPECT_EQ(float(y.at(0, 0)), 0.0f);
  EXPECT_EQ(float(y.at(0, 1)), 2.0f);
  EXPECT_EQ(float(y.at(1, 0)), 0.0f);
  EXPECT_EQ(float(y.at(1, 1)), 0.0f);
}

TEST(Elementwise, GeluKnownValues) {
  EXPECT_NEAR(gelu(0.0f), 0.0f, 1e-6);
  EXPECT_NEAR(gelu(1.0f), 0.8412f, 1e-3);
  EXPECT_NEAR(gelu(-1.0f), -0.1588f, 1e-3);
  TensorH x(Shape{1, 1}, half(1.0f)), y(Shape{1, 1});
  gelu_op(x, y);
  EXPECT_NEAR(float(y.at(0, 0)), 0.8412f, 5e-3);
}

TEST(Elementwise, ResidualAdd) {
  const TensorH a = random_tensor(Shape{3, 3}, 10);
  const TensorH b = random_tensor(Shape{3, 3}, 11);
  TensorH y(Shape{3, 3});
  residual_add(a, b, y);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(float(y.data()[static_cast<std::size_t>(i)]),
                float(a.data()[static_cast<std::size_t>(i)]) +
                    float(b.data()[static_cast<std::size_t>(i)]),
                kTol);
  }
}

// ---- Row-contiguous ops: bit identity with the per-element formulas --------
//
// Each op converts whole rows to FP32, does the same arithmetic in the same
// order and rounds to half once.  The oracles below are the per-element
// formulas through Tensor::at and the software half conversions; every
// output bit must match them.  The one exception is a NaN output: IEEE 754
// does not specify the sign of a NaN result, and when two NaNs meet the
// compiler may hand either operand to the add (the oracle itself flips
// between -O2 and -O3), so a NaN output only has to be NaN.

void oracle_bias_add(const TensorH& x, const TensorH& bias, TensorH& y) {
  for (std::int64_t i = 0; i < x.shape()[0]; ++i)
    for (std::int64_t j = 0; j < x.shape()[1]; ++j)
      y.at(i, j) = half(float(x.at(i, j)) + float(bias.at(j)));
}

void oracle_residual_add(const TensorH& a, const TensorH& b, TensorH& y) {
  for (std::int64_t i = 0; i < a.shape()[0]; ++i)
    for (std::int64_t j = 0; j < a.shape()[1]; ++j)
      y.at(i, j) = half(float(a.at(i, j)) + float(b.at(i, j)));
}

void oracle_relu(const TensorH& x, TensorH& y) {
  for (std::int64_t i = 0; i < x.shape()[0]; ++i)
    for (std::int64_t j = 0; j < x.shape()[1]; ++j)
      y.at(i, j) = half(std::max(0.0f, float(x.at(i, j))));
}

void oracle_gelu(const TensorH& x, TensorH& y) {
  for (std::int64_t i = 0; i < x.shape()[0]; ++i)
    for (std::int64_t j = 0; j < x.shape()[1]; ++j)
      y.at(i, j) = half(gelu(float(x.at(i, j))));
}

void oracle_layernorm(const TensorH& x, const TensorH& gamma,
                      const TensorH& beta, TensorH& y, float eps = 1e-5f) {
  const std::int64_t n = x.shape()[1];
  for (std::int64_t i = 0; i < x.shape()[0]; ++i) {
    float mean = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) mean += float(x.at(i, j));
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      const float d = float(x.at(i, j)) - mean;
      var += d * d;
    }
    var /= static_cast<float>(n);
    const float inv_std = 1.0f / std::sqrt(var + eps);
    for (std::int64_t j = 0; j < n; ++j) {
      const float norm = (float(x.at(i, j)) - mean) * inv_std;
      y.at(i, j) = half(norm * float(gamma.at(j)) + float(beta.at(j)));
    }
  }
}

::testing::AssertionResult same_bits(const TensorH& got, const TensorH& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const TensorH& g = got;
  const TensorH& w = want;
  for (std::size_t i = 0; i < g.data().size(); ++i) {
    const bool both_nan = std::isnan(float(g.data()[i])) &&
                          std::isnan(float(w.data()[i]));
    if (g.data()[i].bits() != w.data()[i].bits() && !both_nan) {
      std::ostringstream os;
      os << "element " << i << ": got 0x" << std::hex << g.data()[i].bits()
         << ", want 0x" << w.data()[i].bits();
      return ::testing::AssertionFailure() << os.str();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every op on (x, p, q) — p, q are (n) broadcast operands, r is a second
/// (rows, n) operand — checked bit for bit against its oracle, out of place
/// and in place (the aliasing the serving layer head uses).
void expect_ops_match_oracles(const TensorH& x, const TensorH& r,
                              const TensorH& p, const TensorH& q) {
  const Shape s = x.shape();
  TensorH got(s), want(s);

  bias_add(x, p, got);
  oracle_bias_add(x, p, want);
  EXPECT_TRUE(same_bits(got, want)) << "bias_add " << s;
  TensorH inplace = x;
  bias_add(inplace, p, inplace);
  EXPECT_TRUE(same_bits(inplace, want)) << "bias_add in place " << s;

  residual_add(x, r, got);
  oracle_residual_add(x, r, want);
  EXPECT_TRUE(same_bits(got, want)) << "residual_add " << s;
  inplace = x;
  residual_add(inplace, r, inplace);
  EXPECT_TRUE(same_bits(inplace, want)) << "residual_add in place " << s;

  relu(x, got);
  oracle_relu(x, want);
  EXPECT_TRUE(same_bits(got, want)) << "relu " << s;
  inplace = x;
  relu(inplace, inplace);
  EXPECT_TRUE(same_bits(inplace, want)) << "relu in place " << s;

  gelu_op(x, got);
  oracle_gelu(x, want);
  EXPECT_TRUE(same_bits(got, want)) << "gelu_op " << s;
  inplace = x;
  gelu_op(inplace, inplace);
  EXPECT_TRUE(same_bits(inplace, want)) << "gelu_op in place " << s;

  layernorm(x, p, q, got);
  oracle_layernorm(x, p, q, want);
  EXPECT_TRUE(same_bits(got, want)) << "layernorm " << s;
  inplace = x;
  layernorm(inplace, p, q, inplace);
  EXPECT_TRUE(same_bits(inplace, want)) << "layernorm in place " << s;
}

TEST(RowOps, MatchPerElementOraclesOnRandomRows) {
  // Widths off the 16-lane grid, one-row and serving-sized batches, and a
  // tensor past one row block (several blocks, split over the pool).
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {1, 1},  {1, 7},   {3, 15},  {19, 17},  {19, 128},
      {5, 33}, {64, 512}, {2, 515}, {300, 129}, {1, 20000}};
  std::uint64_t seed = 100;
  for (const auto& [rows, n] : shapes) {
    TensorH x(Shape{rows, n}), r(Shape{rows, n});
    TensorH p(Shape{n}), q(Shape{n});
    Rng rng(seed++);
    x.fill_random(rng, -6.0f, 6.0f);
    r.fill_random(rng, -6.0f, 6.0f);
    p.fill_random(rng, 0.5f, 1.5f);
    q.fill_random(rng, -0.5f, 0.5f);
    expect_ops_match_oracles(x, r, p, q);
  }
}

TEST(RowOps, MatchPerElementOraclesOnEdgeHalves) {
  // +-0, subnormals, the normal boundary, +-max, +-inf, quiet and
  // signaling NaNs of both signs, and ordinary values between them.
  const std::uint16_t edges[] = {
      0x0000, 0x8000, 0x0001, 0x8001, 0x03ff, 0x83ff, 0x0400, 0x8400,
      0x7bff, 0xfbff, 0x7c00, 0xfc00, 0x7e00, 0xfe00, 0x7c01, 0xfd00,
      0x3c00, 0xbc00, 0x4900, 0xc500, 0x1400, 0x9400, 0x5800, 0xd800};
  const auto n = static_cast<std::int64_t>(std::size(edges));
  // Row i pairs edge j with edge (i + j) % n, so every edge meets every
  // other edge as the second operand.
  TensorH x(Shape{n, n}), r(Shape{n, n}), p(Shape{n}), q(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      x.at(i, j) = half::from_bits(edges[j]);
      r.at(i, j) = half::from_bits(edges[(i + j) % n]);
    }
    p.at(i) = half::from_bits(edges[(i + 3) % n]);
    q.at(i) = half::from_bits(edges[(i + 7) % n]);
  }
  expect_ops_match_oracles(x, r, p, q);
  // Finite rows with edge affine parameters: LayerNorm's inf/NaN handling
  // then comes from gamma and beta alone.
  TensorH finite(Shape{4, n});
  Rng rng(17);
  finite.fill_random(rng);
  expect_ops_match_oracles(finite, finite, p, q);
}

TEST(RowOps, GeluMatchesFormulaOnEveryHalf) {
  TensorH x(Shape{256, 256});
  for (std::uint32_t bits = 0; bits < 65536; ++bits) {
    x.data()[bits] = half::from_bits(static_cast<std::uint16_t>(bits));
  }
  TensorH got(x.shape()), want(x.shape());
  gelu_op(x, got);
  oracle_gelu(x, want);
  EXPECT_TRUE(same_bits(got, want));
}

// ---- LayerNorm -----------------------------------------------------------------

TEST(Layernorm, NormalizesRows) {
  const TensorH x = random_tensor(Shape{6, 32}, 12);
  TensorH gamma(Shape{32}, half(1.0f)), beta(Shape{32}, half(0.0f));
  TensorH y(Shape{6, 32});
  layernorm(x, gamma, beta, y);
  for (std::int64_t i = 0; i < 6; ++i) {
    float mean = 0, var = 0;
    for (std::int64_t j = 0; j < 32; ++j) mean += float(y.at(i, j));
    mean /= 32;
    for (std::int64_t j = 0; j < 32; ++j) {
      const float d = float(y.at(i, j)) - mean;
      var += d * d;
    }
    var /= 32;
    EXPECT_NEAR(mean, 0.0f, 0.02);
    EXPECT_NEAR(var, 1.0f, 0.05);
  }
}

TEST(Layernorm, AffineApplied) {
  TensorH x(Shape{1, 4});
  for (std::int64_t j = 0; j < 4; ++j) x.at(0, j) = half(float(j));
  TensorH gamma(Shape{4}, half(2.0f)), beta(Shape{4}, half(3.0f));
  TensorH y(Shape{1, 4});
  layernorm(x, gamma, beta, y);
  float mean = 0;
  for (std::int64_t j = 0; j < 4; ++j) mean += float(y.at(0, j));
  EXPECT_NEAR(mean / 4, 3.0f, 0.02);  // beta shifts the mean
}

// ---- Fused == detached numerics ----------------------------------------------

TEST(Fused, BiasLayernormMatchesDetached) {
  const TensorH x = random_tensor(Shape{7, 24}, 15);
  const TensorH bias = random_tensor(Shape{24}, 16);
  const TensorH gamma = random_tensor(Shape{24}, 17);
  const TensorH beta = random_tensor(Shape{24}, 18);

  TensorH fused(Shape{7, 24});
  fused_bias_layernorm(x, bias, gamma, beta, fused);

  TensorH biased(Shape{7, 24}), detached(Shape{7, 24});
  bias_add(x, bias, biased);
  layernorm(biased, gamma, beta, detached);

  EXPECT_LT(max_abs_diff(fused, detached), kTol);
}

// ---- Cost-model shapes (Fig. 3) ----------------------------------------------

class DeviceCase : public ::testing::TestWithParam<gpusim::DeviceSpec> {};

TEST_P(DeviceCase, BiasLayernormFusionAlwaysWins) {
  const auto dev = GetParam();
  for (std::int64_t rows : {128, 4096, 32768}) {
    for (std::int64_t n : {512, 1024}) {
      const double fused = gpusim::estimate_time_us(
          fused_bias_layernorm_cost(rows, n, NormParams{}, dev), dev);
      const double detached = sequence_time_us(
          detached_bias_layernorm_cost(rows, n, EwParams{}, NormParams{}, dev),
          dev);
      EXPECT_LT(fused, detached) << dev.name << " rows=" << rows << " n=" << n;
    }
  }
}

// Fig. 3: GEMM+LayerNorm fusion is strongly profitable at hidden 512 but
// causes slowdowns at hidden 1024 (shared-memory row buffer kills
// occupancy).  Evaluated at the best parameter setting for each side.
double best_fused_gemm_ln_us(const GemmDims& d, const gpusim::DeviceSpec& dev) {
  double best = 1e30;
  for (const auto& p : gemm_param_space()) {
    const auto c = fused_gemm_layernorm_cost(d, p, dev);
    if (c.occupancy <= 0) continue;
    best = std::min(best, gpusim::estimate_time_us(c, dev));
  }
  return best;
}

double best_detached_gemm_ln_us(const GemmDims& d,
                                const gpusim::DeviceSpec& dev) {
  double best = 1e30;
  for (const auto& p : gemm_param_space()) {
    const auto seq = detached_gemm_layernorm_cost(d, p, NormParams{}, dev);
    best = std::min(best, sequence_time_us(seq, dev));
  }
  return best;
}

TEST_P(DeviceCase, GemmLayernormFusionWinsAtHidden512) {
  const auto dev = GetParam();
  const GemmDims dims{1, 8 * 512, 512, 512};  // (bs 8, seq 512), hidden 512
  EXPECT_LT(best_fused_gemm_ln_us(dims, dev),
            best_detached_gemm_ln_us(dims, dev))
      << dev.name;
}

TEST_P(DeviceCase, GemmLayernormFusionLosesAtHidden1024) {
  const auto dev = GetParam();
  const GemmDims dims{1, 16 * 2048, 1024, 1024};
  EXPECT_GT(best_fused_gemm_ln_us(dims, dev),
            best_detached_gemm_ln_us(dims, dev))
      << dev.name;
}

// Fig. 3 / §3.2: CI+CI chain fusion only benefits small scales.
TEST_P(DeviceCase, GemmChainFusionLosesAtLargeScale) {
  const auto dev = GetParam();
  const GemmChainDims dims{1, 16 * 2048, 1024, 1024, 1024};
  double best_fused = 1e30, best_detached = 1e30;
  for (const auto& p : gemm_param_space()) {
    const auto c = fused_gemm_gemm_cost(dims, p, dev);
    if (c.occupancy > 0) {
      best_fused = std::min(best_fused, gpusim::estimate_time_us(c, dev));
    }
    best_detached = std::min(
        best_detached, sequence_time_us(detached_gemm_gemm_cost(dims, p, dev), dev));
  }
  EXPECT_GT(best_fused, best_detached) << dev.name;
}

INSTANTIATE_TEST_SUITE_P(BothGpus, DeviceCase,
                         ::testing::Values(gpusim::rtx4090(), gpusim::a100()),
                         [](const auto& info) { return info.param.name; });

TEST(CostModel, GemmCostScalesWithProblem) {
  const auto dev = gpusim::a100();
  const GemmParams p;
  const auto small = gemm_cost({1, 128, 512, 512}, p, dev);
  const auto large = gemm_cost({1, 4096, 512, 512}, p, dev);
  EXPECT_GT(large.tc_flops, small.tc_flops * 30);
  EXPECT_GT(gpusim::estimate_time_us(large, dev),
            gpusim::estimate_time_us(small, dev));
}

TEST(CostModel, ParamSpacesNonEmptyAndValid) {
  EXPECT_GT(gemm_param_space().size(), 20u);
  EXPECT_GT(elementwise_param_space().size(), 4u);
  EXPECT_GT(norm_param_space().size(), 4u);
  const auto dev = gpusim::rtx4090();
  for (const auto& p : gemm_param_space()) {
    const auto c = gemm_cost({1, 256, 256, 256}, p, dev);
    EXPECT_GE(c.occupancy, 0.0);
    EXPECT_GT(gpusim::estimate_time_us(c, dev), 0.0);
  }
}

}  // namespace
}  // namespace stof::ops
