// Property tests for the register-tiled packed micro-kernels: the
// cache-blocked sgemm_accumulate must be bit-identical to the naive
// reference loop across odd shapes (rows/cols not multiples of the
// register blocks, depths crossing the unroll and cache-block
// boundaries), and the MHA kernels (tensor K/V widened per call, paged
// decode over FP32 pages) must stay bit-identical to the scalar reference
// kernels of the test oracle.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "oracle/oracle.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/decode.hpp"
#include "stof/mha/rowwise_kernel.hpp"
#include "stof/mha/varlen.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/sparse/rowwise_mask.hpp"

namespace stof {
namespace {

/// Realistic FP32 values: round-tripped through half like kernel operands.
std::vector<float> random_panel(std::int64_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(static_cast<std::size_t>(count));
  for (auto& x : out) {
    x = packed::to_float(half(rng.uniform(-1.0f, 1.0f)));
  }
  return out;
}

::testing::AssertionResult floats_bit_equal(const std::vector<float>& a,
                                            const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "bit mismatch at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult tensors_bit_equal(const TensorH& a,
                                             const TensorH& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const auto sa = a.data();
  const auto sb = b.data();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].bits() != sb[i].bits()) {
      return ::testing::AssertionFailure()
             << "bit mismatch at flat index " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

TensorH random_tensor(Shape shape, std::uint64_t seed) {
  TensorH t(shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

// ---- register-blocked sgemm_accumulate vs the naive triple loop --------------

TEST(SgemmAccumulate, BitIdenticalToNaiveAcrossOddShapes) {
  // k crosses the 128 cache block, n crosses the 256 cache block, and rows
  // straddle the 4-row register tile.
  const std::int64_t row_sizes[] = {1, 3, 4, 5, 8};
  const std::int64_t k_sizes[] = {1, 7, 128, 130};
  const std::int64_t n_sizes[] = {1, 5, 256, 259};
  std::uint64_t seed = 1000;
  for (const auto rows : row_sizes) {
    for (const auto k : k_sizes) {
      for (const auto n : n_sizes) {
        const auto a = random_panel(rows * k, seed++);
        const auto b = random_panel(k * n, seed++);
        auto got = random_panel(rows * n, seed);  // accumulate onto noise
        auto want = got;
        packed::sgemm_accumulate(a.data(), b.data(), got.data(), rows, k, n);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t ki = 0; ki < k; ++ki) {
            const float av = a[static_cast<std::size_t>(r * k + ki)];
            for (std::int64_t j = 0; j < n; ++j) {
              want[static_cast<std::size_t>(r * n + j)] +=
                  av * b[static_cast<std::size_t>(ki * n + j)];
            }
          }
        }
        EXPECT_TRUE(floats_bit_equal(got, want))
            << rows << "x" << k << "x" << n;
        ++seed;
      }
    }
  }
}

// ---- Packed MHA kernels (widened K/V + micro-kernels) vs scalar --------------

class BlockwiseOracleBitIdentity
    : public ::testing::TestWithParam<masks::PatternKind> {};

TEST_P(BlockwiseOracleBitIdentity, OddShapes) {
  // seq_len 50 is not a multiple of block_m 16 (edge Q blocks have 2 rows)
  // and the last K block has cols < block_n — both micro-kernel remainder
  // paths and the widened K/V's edge handling are exercised.
  const mha::MhaDims dims{2, 3, 50, 24};
  const TensorH q = random_tensor(dims.qkv_shape(), 21);
  const TensorH k = random_tensor(dims.kv_shape(), 22);
  const TensorH v = random_tensor(dims.kv_shape(), 23);
  const masks::Mask m =
      masks::MaskSpec{.kind = GetParam(), .seq_len = 50}.build();
  const auto bsr = sparse::BsrMask::build(m, 16, 16);
  const mha::BlockwiseParams params{16, 16};

  EXPECT_TRUE(tensors_bit_equal(
      oracle::blockwise_attention(dims, q, k, v, bsr, params),
      mha::blockwise_attention(dims, q, k, v, bsr, params)))
      << masks::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BlockwiseOracleBitIdentity,
    ::testing::Values(masks::PatternKind::kCausal,
                      masks::PatternKind::kSlidingWindow,
                      masks::PatternKind::kGlobal, masks::PatternKind::kBigBird,
                      masks::PatternKind::kDense),
    [](const auto& info) { return masks::to_string(info.param); });

TEST(BlockwiseOracleBitIdentityGqa, GroupedQueryHeadsShareKvPanels) {
  // 6 query heads over 2 K/V heads: the widened K/V must be indexed by
  // kv_instance_of, not by the query instance.
  mha::MhaDims dims{2, 6, 64, 16};
  dims.kv_heads = 2;
  const TensorH q = random_tensor(dims.qkv_shape(), 31);
  const TensorH k = random_tensor(dims.kv_shape(), 32);
  const TensorH v = random_tensor(dims.kv_shape(), 33);
  const auto bsr = sparse::BsrMask::build(masks::causal(64), 32, 32);
  const mha::BlockwiseParams params{32, 32};

  EXPECT_TRUE(tensors_bit_equal(
      oracle::blockwise_attention(dims, q, k, v, bsr, params),
      mha::blockwise_attention(dims, q, k, v, bsr, params)));
}

TEST(RowwiseOracleBitIdentity, MatchesOracle) {
  const mha::MhaDims dims{2, 3, 48, 16};
  const TensorH q = random_tensor(dims.qkv_shape(), 41);
  const TensorH k = random_tensor(dims.kv_shape(), 42);
  const TensorH v = random_tensor(dims.kv_shape(), 43);
  const masks::Mask m =
      masks::MaskSpec{.kind = masks::PatternKind::kBigBird, .seq_len = 48}
          .build();
  const auto rw = sparse::RowwiseMask::build(m);

  EXPECT_TRUE(tensors_bit_equal(oracle::rowwise_attention(dims, q, k, v, rw),
                                mha::rowwise_attention(dims, q, k, v, rw)));
}

// K/V are inputs: each call widens them afresh, so a call after an in-place
// write to K/V reads the new values, never a copy left by an earlier call.
TEST(TensorKvWidening, InPlaceKvWritesReachTheNextCall) {
  const mha::MhaDims dims{2, 2, 64, 16};
  const TensorH q = random_tensor(dims.qkv_shape(), 61);
  TensorH k = random_tensor(dims.kv_shape(), 62);
  TensorH v = random_tensor(dims.kv_shape(), 63);
  const auto bsr = sparse::BsrMask::build(masks::causal(64), 16, 16);
  const mha::BlockwiseParams params{16, 16};
  const auto rw = sparse::RowwiseMask::build(masks::causal(64));
  const mha::VarlenBatch batch{64, {64, 40}};
  // K through fill_random, V through its mutable span.
  const auto mutate = [&](std::uint64_t seed) {
    Rng rng(seed);
    k.fill_random(rng);
    for (half& x : v.data()) x = half(rng.uniform(-1.0f, 1.0f));
  };

  const TensorH bw_before =
      mha::blockwise_attention(dims, q, k, v, bsr, params);
  mutate(64);
  const TensorH bw_after = mha::blockwise_attention(dims, q, k, v, bsr, params);
  EXPECT_FALSE(tensors_bit_equal(bw_before, bw_after));
  EXPECT_TRUE(tensors_bit_equal(
      oracle::blockwise_attention(dims, q, k, v, bsr, params), bw_after));

  const TensorH rw_before = mha::rowwise_attention(dims, q, k, v, rw);
  mutate(65);
  const TensorH rw_after = mha::rowwise_attention(dims, q, k, v, rw);
  EXPECT_FALSE(tensors_bit_equal(rw_before, rw_after));
  EXPECT_TRUE(tensors_bit_equal(oracle::rowwise_attention(dims, q, k, v, rw),
                                rw_after));

  const TensorH vl_before =
      mha::varlen_attention(dims, q, k, v, bsr, batch, params);
  mutate(66);
  const TensorH vl_after =
      mha::varlen_attention(dims, q, k, v, bsr, batch, params);
  EXPECT_FALSE(tensors_bit_equal(vl_before, vl_after));
  EXPECT_TRUE(tensors_bit_equal(
      oracle::varlen_attention(dims, q, k, v, bsr, batch, params), vl_after));
}

/// Paged decode of one row per sequence, sequence s attending `cols[s]`
/// over `ctx` cached positions: the library kernel reads FP32 pages, the
/// oracle their halfs, and the two must agree bit for bit.
void expect_paged_decode_matches_oracle(
    std::int64_t ctx, const std::vector<std::vector<std::int32_t>>& cols) {
  constexpr std::int64_t kHeads = 4, kD = 16, kBt = 16;
  const auto n_seqs = static_cast<std::int64_t>(cols.size());
  const std::int64_t blocks = (ctx + kBt - 1) / kBt;
  const auto span_blocks = static_cast<std::size_t>(blocks);
  const TensorH q = random_tensor(Shape{n_seqs * kHeads, 1, kD}, 51);
  // One (kBt, kHeads, kD) page per (sequence, block).
  const TensorH kc =
      random_tensor(Shape{n_seqs * blocks, kBt * kHeads, kD}, 52);
  const TensorH vc =
      random_tensor(Shape{n_seqs * blocks, kBt * kHeads, kD}, 53);
  std::vector<float> kf(kc.data().size()), vf(vc.data().size());
  packed::half_to_float(kc.data(), kf);
  packed::half_to_float(vc.data(), vf);
  std::vector<const half*> k_pages, v_pages;
  std::vector<const float*> kf_pages, vf_pages;
  for (std::int64_t p = 0; p < n_seqs * blocks; ++p) {
    k_pages.push_back(kc.data().data() + p * kBt * kHeads * kD);
    v_pages.push_back(vc.data().data() + p * kBt * kHeads * kD);
    kf_pages.push_back(kf.data() + p * kBt * kHeads * kD);
    vf_pages.push_back(vf.data() + p * kBt * kHeads * kD);
  }
  std::vector<oracle::PagedSeq> half_seqs;
  std::vector<mha::PagedSeq> seqs;
  for (std::int64_t s = 0; s < n_seqs; ++s) {
    const auto& c = cols[static_cast<std::size_t>(s)];
    half_seqs.push_back(oracle::PagedSeq{
        ctx, kBt, {k_pages.data() + s * blocks, span_blocks},
        {v_pages.data() + s * blocks, span_blocks}, c});
    seqs.push_back(mha::PagedSeq{
        ctx, kBt, {kf_pages.data() + s * blocks, span_blocks},
        {vf_pages.data() + s * blocks, span_blocks}, c});
  }
  const TensorH want =
      oracle::decode_attention_paged(kHeads, kD, half_seqs, q);
  for (const core::Isa isa : core::available_isas()) {
    core::ScopedKernelIsa pin(isa);
    EXPECT_TRUE(tensors_bit_equal(
        want, mha::decode_attention_paged(kHeads, kD, seqs, q)))
        << core::isa_name(isa);
  }
}

TEST(DecodeScratchBitIdentity, MatchesOracle) {
  // The odd context length leaves the last page part-filled.
  const std::vector<std::int32_t> cols = {0, 3, 5, 11, 20, 36};
  expect_paged_decode_matches_oracle(37, {cols, cols, cols});
}

TEST(DecodeScratchBitIdentity, SplitKvMergeMatchesOracle) {
  // 421 positions: four 128-token chunks, the last page holding 5 rows.
  // Sequence 0 leaves chunk 1 ([128, 256)) without an attended column and
  // ends on the part-filled page; sequence 1 is dense causal; sequence 2
  // attends one column per chunk, on chunk boundaries; sequence 3 stays
  // inside chunk 0 and never merges.
  std::vector<std::int32_t> gap = {0, 3, 5, 11, 127};
  for (std::int32_t j = 256; j < 421; j += 7) gap.push_back(j);
  gap.push_back(420);
  std::vector<std::int32_t> dense(421);
  for (std::int32_t j = 0; j < 421; ++j) dense[static_cast<std::size_t>(j)] = j;
  const std::vector<std::int32_t> edges = {127, 128, 255, 256, 384};
  const std::vector<std::int32_t> one_chunk = {1, 64, 100};
  ASSERT_EQ(mha::decode_chunks(gap, 16), 3);
  ASSERT_EQ(mha::decode_chunks(dense, 16), 4);
  ASSERT_EQ(mha::decode_chunks(edges, 16), 4);
  ASSERT_EQ(mha::decode_chunks(one_chunk, 16), 1);
  // FP16 outputs hide most one-ulp FP32 differences between merge orders,
  // so 16 sequences of each pattern give the comparison enough outputs to
  // tell a wrong merge order from the oracle's.
  std::vector<std::vector<std::int32_t>> cols;
  for (int rep = 0; rep < 16; ++rep) {
    cols.insert(cols.end(), {gap, dense, edges, one_chunk});
  }
  expect_paged_decode_matches_oracle(421, cols);
}

}  // namespace
}  // namespace stof
