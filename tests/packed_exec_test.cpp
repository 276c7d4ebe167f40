// Bit-identity of the packed-FP32 kernels against the scalar reference
// kernels of the test oracle: panel conversions are exact, and GEMM and
// block-wise MHA reproduce the oracle's results bit for bit across
// epilogues, batched/unbatched B, odd (non-multiple-of-block) shapes, and
// masked/score-modified attention.  The block-wise kernel's lane tile is
// checked on every ISA the host runs, across block shapes, head sizes, tail
// rows and columns, GQA, score mods and query windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "oracle/oracle.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/sparse/bsr_mask.hpp"

namespace stof {
namespace {

using ops::Epilogue;

/// Bitwise comparison of two half tensors; reports the first mismatch.
::testing::AssertionResult bits_equal(const TensorH& a, const TensorH& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const auto sa = a.data();
  const auto sb = b.data();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].bits() != sb[i].bits()) {
      return ::testing::AssertionFailure()
             << "bit mismatch at flat index " << i << ": 0x" << std::hex
             << sa[i].bits() << " vs 0x" << sb[i].bits();
    }
  }
  return ::testing::AssertionSuccess();
}

TensorH random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0f,
                      float hi = 1.0f) {
  TensorH t(shape);
  Rng rng(seed);
  t.fill_random(rng, lo, hi);
  return t;
}

// ---- Panel conversions -------------------------------------------------------

TEST(PackedConversion, TableMatchesReferenceForAllBitPatterns) {
  const float* table = packed::h2f_table();
  for (std::uint32_t bits = 0; bits < 65536; ++bits) {
    const float expect = half::to_float(static_cast<std::uint16_t>(bits));
    // Bit-level compare: NaN payloads and signed zeros must survive.
    EXPECT_EQ(std::bit_cast<std::uint32_t>(table[bits]),
              std::bit_cast<std::uint32_t>(expect))
        << "half bits 0x" << std::hex << bits;
  }
}

TEST(PackedConversion, PanelsRoundTripThroughHalfRounding) {
  // Values spanning normals, subnormals, overflow-to-inf, and exact halves.
  const std::vector<float> samples = {0.0f,    -0.0f,   1.0f,     -2.5f,
                                      1e-8f,   -3e-5f,  65504.0f, 70000.0f,
                                      0.1f,    -0.3337f, 1.5e-7f, 1234.56f};
  std::vector<half> h(samples.size());
  packed::float_to_half(samples, h);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(h[i].bits(), half(samples[i]).bits()) << samples[i];
  }
  std::vector<float> back(samples.size());
  packed::half_to_float(h, back);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(float(h[i])));
  }
}

// ---- GEMM --------------------------------------------------------------------

struct GemmCase {
  std::int64_t batch, m, k, n;
  bool batched_b;
};

class PackedGemm : public ::testing::TestWithParam<GemmCase> {};

TEST_P(PackedGemm, BitIdenticalToOracleAcrossEpilogues) {
  const auto [batch, m, k, n, batched_b] = GetParam();
  const TensorH a = random_tensor(Shape{batch, m, k}, 7);
  const TensorH b = batched_b ? random_tensor(Shape{batch, k, n}, 11)
                              : random_tensor(Shape{k, n}, 11);
  const TensorH bias = random_tensor(Shape{n}, 13);

  for (const Epilogue ep : {Epilogue::kNone, Epilogue::kBias,
                            Epilogue::kBiasRelu, Epilogue::kBiasGelu}) {
    const TensorH* bp = ep == Epilogue::kNone ? nullptr : &bias;
    TensorH want(Shape{batch, m, n});
    oracle::gemm(a, b, want, ep, bp);
    for (const core::Isa isa : core::available_isas()) {
      core::ScopedKernelIsa pin(isa);
      TensorH got(Shape{batch, m, n});
      ops::gemm(a, b.to_float(), got, ep, bp);
      EXPECT_TRUE(bits_equal(want, got))
          << core::isa_name(isa) << " epilogue " << static_cast<int>(ep);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedGemm,
    ::testing::Values(
        GemmCase{1, 7, 13, 9, false},     // odd everything, shared B
        GemmCase{2, 33, 65, 31, false},   // one past the block sizes
        GemmCase{3, 17, 300, 5, true},    // odd, k > KB block, batched B
        GemmCase{2, 64, 128, 96, true},   // block-aligned, batched B
        GemmCase{1, 1, 1, 1, false},      // degenerate single element
        GemmCase{1, 70, 257, 260, false}  // n > NB block boundary
        ));

TEST(PackedMatmul2d, BitIdenticalToOracle) {
  for (const auto& [r, k, n] :
       std::vector<std::array<std::int64_t, 3>>{{5, 9, 7}, {64, 130, 257}}) {
    const TensorH x = random_tensor(Shape{r, k}, 21);
    const TensorH w = random_tensor(Shape{k, n}, 22);
    TensorH want(Shape{r, n});
    TensorH got(Shape{r, n});
    oracle::matmul2d(x, w, want);
    ops::matmul2d(x, w.to_float(), got);
    EXPECT_TRUE(bits_equal(want, got)) << r << "x" << k << "x" << n;
  }
}

// ---- Block-wise MHA ----------------------------------------------------------

struct MhaCase {
  masks::PatternKind pattern;
  std::int64_t seq_len;
  int block;
  bool with_score_mod;
};

class PackedBlockwiseMha : public ::testing::TestWithParam<MhaCase> {};

TEST_P(PackedBlockwiseMha, BitIdenticalToOracle) {
  const auto [pattern, seq_len, block, with_score_mod] = GetParam();
  const mha::MhaDims dims{2, 3, seq_len, 16};
  const TensorH q = random_tensor(dims.qkv_shape(), 31);
  const TensorH k = random_tensor(dims.kv_shape(), 32);
  const TensorH v = random_tensor(dims.kv_shape(), 33);
  const masks::Mask mask =
      masks::MaskSpec{.kind = pattern, .seq_len = seq_len}.build();
  const auto bsr = sparse::BsrMask::build(mask, block, block);
  const mha::BlockwiseParams params{block, block};
  const mha::ScoreMod mod =
      with_score_mod
          ? mha::ScoreMod([](std::int64_t, std::int64_t i, std::int64_t j,
                             float s) {
              return s - 0.05f * static_cast<float>(i > j ? i - j : j - i);
            })
          : mha::ScoreMod(nullptr);

  EXPECT_TRUE(bits_equal(
      oracle::blockwise_attention(dims, q, k, v, bsr, params, mod),
      mha::blockwise_attention(dims, q, k, v, bsr, params, mod)));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, PackedBlockwiseMha,
    ::testing::Values(
        // Odd seq_len exercises edge blocks; sliding window / BigBird mix
        // full and part blocks; dense is all-full.
        MhaCase{masks::PatternKind::kSlidingWindow, 50, 16, false},
        MhaCase{masks::PatternKind::kBigBird, 77, 16, false},
        MhaCase{masks::PatternKind::kDense, 48, 16, false},
        MhaCase{masks::PatternKind::kCausal, 64, 32, false},
        MhaCase{masks::PatternKind::kSlidingWindow, 50, 16, true}));

struct LaneTileCase {
  int block_m;
  int block_n;
  std::int64_t head_size;
};

class PackedLaneTile : public ::testing::TestWithParam<LaneTileCase> {};

TEST_P(PackedLaneTile, BitIdenticalToOracleOnEveryIsa) {
  const auto [bm, bn, d] = GetParam();
  // GQA (4 query heads over 2 KV heads); seq_len 100 leaves tail rows and
  // tail columns for every block size, and BigBird mixes full blocks, part
  // blocks and rows with no valid column inside a block.
  const mha::MhaDims dims{1, 4, 100, d, 2};
  const TensorH q = random_tensor(dims.qkv_shape(), 41);
  const TensorH k = random_tensor(dims.kv_shape(), 42);
  const TensorH v = random_tensor(dims.kv_shape(), 43);
  const masks::Mask mask =
      masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                      .seq_len = dims.seq_len}
          .build();
  const auto bsr = sparse::BsrMask::build(mask, bm, bn);
  const mha::BlockwiseParams params{bm, bn};
  const mha::ScoreMod tilt([](std::int64_t h, std::int64_t i, std::int64_t j,
                              float s) {
    return s * 0.75f + 0.01f * static_cast<float>(h) -
           0.02f * static_cast<float>(i > j ? i - j : j - i);
  });
  const std::int64_t rows = bsr.rows();
  const std::pair<std::int64_t, std::int64_t> windows[] = {
      {0, rows}, {rows > 2 ? 1 : 0, rows > 2 ? rows - 1 : rows}};
  for (const bool with_mod : {false, true}) {
    const mha::ScoreMod mod = with_mod ? tilt : mha::ScoreMod(nullptr);
    for (const auto& [begin, end] : windows) {
      const TensorH want = oracle::blockwise_attention(
          dims, q, k, v, bsr, params, mod, begin, end);
      for (const core::Isa isa : core::available_isas()) {
        core::ScopedKernelIsa pin(isa);
        const TensorH got = mha::blockwise_attention(
            dims, q, k, v, bsr, params, mod, begin, end);
        EXPECT_TRUE(bits_equal(want, got))
            << core::isa_name(isa) << " mod=" << with_mod << " window=["
            << begin << "," << end << ")";
      }
    }
  }
}

std::vector<LaneTileCase> lane_tile_cases() {
  std::vector<LaneTileCase> out;
  for (const int bm : {16, 32, 64}) {
    for (const int bn : {16, 32, 64}) {
      for (const std::int64_t d : {16, 24, 32, 64}) out.push_back({bm, bn, d});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(BlockShapes, PackedLaneTile,
                         ::testing::ValuesIn(lane_tile_cases()));

}  // namespace
}  // namespace stof
