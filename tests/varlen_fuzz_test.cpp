// Randomized ragged-batch fuzzing for varlen attention (serving admission
// batches): random lengths including the 0- and 1-token edge cases, random
// mask patterns, checked element-by-element against per-sequence reference
// attention under each sequence's effective mask.  The varlen cost on the
// base BSR is checked field for field against per-element BSRs built from
// the dense effective masks.
#include <gtest/gtest.h>

#include "stof/core/rng.hpp"
#include "stof/mha/reference.hpp"
#include "stof/mha/varlen.hpp"

namespace stof::mha {
namespace {

masks::Mask random_base(Rng& rng, std::int64_t seq) {
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kDense, masks::PatternKind::kCausal,
      masks::PatternKind::kSlidingWindow, masks::PatternKind::kLongformer,
      masks::PatternKind::kBigBird, masks::PatternKind::kStrided};
  const auto kind = kinds[rng.next_below(std::size(kinds))];
  return masks::MaskSpec{.kind = kind,
                         .seq_len = seq,
                         .seed = rng.next_u64()}
      .build();
}

sparse::BsrMask bsr16(const masks::Mask& base) {
  return sparse::BsrMask::build(base, 16, 16);
}

TEST(VarlenFuzz, RandomRaggedBatchesMatchPerSequenceReference) {
  Rng rng(20260806);
  for (int iter = 0; iter < 12; ++iter) {
    const std::int64_t seq = 16 * (1 + static_cast<std::int64_t>(
                                           rng.next_below(3)));  // 16/32/48
    const auto batch_n = static_cast<std::int64_t>(2 + rng.next_below(4));
    const std::int64_t heads = 1 + static_cast<std::int64_t>(rng.next_below(3));
    const std::int64_t d = 8 * (1 + static_cast<std::int64_t>(
                                        rng.next_below(3)));

    std::vector<std::int64_t> lengths;
    for (std::int64_t b = 0; b < batch_n; ++b) {
      lengths.push_back(static_cast<std::int64_t>(rng.next_below(
          static_cast<std::uint64_t>(seq) + 1)));
    }
    // Force the edge cases into every third iteration: an empty (fully
    // padded) sequence and a single-token sequence.
    if (iter % 3 == 0 && batch_n >= 2) {
      lengths[0] = 0;
      lengths[1] = 1;
    }

    const MhaDims dims{batch_n, heads, seq, d};
    TensorH q(dims.qkv_shape()), k(dims.qkv_shape()), v(dims.qkv_shape());
    q.fill_random(rng);
    k.fill_random(rng);
    v.fill_random(rng);
    const masks::Mask base = random_base(rng, seq);
    const VarlenBatch batch{seq, lengths};
    batch.validate();

    const TensorH got = varlen_attention(dims, q, k, v, bsr16(base), batch);

    for (std::int64_t b = 0; b < batch_n; ++b) {
      const std::int64_t len = lengths[static_cast<std::size_t>(b)];
      const MhaDims one{1, heads, seq, d};
      TensorH qb(one.qkv_shape()), kb(one.qkv_shape()), vb(one.qkv_shape());
      for (std::int64_t h = 0; h < heads; ++h) {
        for (std::int64_t s = 0; s < seq; ++s) {
          for (std::int64_t e = 0; e < d; ++e) {
            qb.at(h, s, e) = q.at(b * heads + h, s, e);
            kb.at(h, s, e) = k.at(b * heads + h, s, e);
            vb.at(h, s, e) = v.at(b * heads + h, s, e);
          }
        }
      }
      const TensorH ref =
          reference_attention(one, qb, kb, vb, effective_mask(base, len));
      for (std::int64_t h = 0; h < heads; ++h) {
        for (std::int64_t s = 0; s < seq; ++s) {
          for (std::int64_t e = 0; e < d; ++e) {
            const float g = float(got.at(b * heads + h, s, e));
            if (s >= len) {
              // Padded rows must be exactly zero, not just close.
              EXPECT_EQ(g, 0.0f)
                  << "iter=" << iter << " b=" << b << " s=" << s;
            } else {
              EXPECT_NEAR(g, float(ref.at(h, s, e)), 4e-3)
                  << "iter=" << iter << " b=" << b << " s=" << s;
            }
          }
        }
      }
    }
  }
}

TEST(VarlenFuzz, AllZeroLengthBatchIsAllZeros) {
  const MhaDims dims{3, 2, 32, 16};
  Rng rng(5);
  TensorH q(dims.qkv_shape()), k(dims.qkv_shape()), v(dims.qkv_shape());
  q.fill_random(rng);
  k.fill_random(rng);
  v.fill_random(rng);
  const VarlenBatch batch{32, {0, 0, 0}};
  const TensorH out =
      varlen_attention(dims, q, k, v, bsr16(masks::dense(32)), batch);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    ASSERT_EQ(float(out.data()[static_cast<std::size_t>(i)]), 0.0f);
  }
}

TEST(VarlenFuzz, CostAcceptsZeroLengths) {
  const MhaDims dims{3, 2, 64, 16};
  const VarlenBatch batch{64, {64, 0, 1}};
  const auto c = varlen_cost(dims, bsr16(masks::dense(64)), batch,
                             BlockwiseParams{16, 16}, gpusim::a100());
  EXPECT_EQ(c.launches, 1);
  EXPECT_GT(c.tc_flops, 0.0);
}

/// varlen_cost's contract spelled out with the dense oracle: one fused
/// launch summing blockwise_cost over every element, each against the BSR
/// built from its effective mask and restricted to its query window, the
/// block rows [q_begin / BLOCK_M, ceil(len / BLOCK_M)) (q_begin is 0 when
/// the batch gives none).
gpusim::KernelCost reference_cost(const MhaDims& dims, const masks::Mask& base,
                                  const VarlenBatch& batch,
                                  const BlockwiseParams& p,
                                  const gpusim::DeviceSpec& dev) {
  const MhaDims one{1, dims.heads, dims.seq_len, dims.head_size};
  gpusim::KernelCost total;
  total.grid_blocks = 0;
  for (std::int64_t b = 0; b < batch.batch(); ++b) {
    const std::int64_t len = batch.lengths[static_cast<std::size_t>(b)];
    const auto bsr = sparse::BsrMask::build(effective_mask(base, len),
                                            p.block_m, p.block_n);
    const auto c =
        blockwise_cost(one, bsr, p, dev, batch.q_begin(b) / p.block_m,
                       (len + p.block_m - 1) / p.block_m);
    total.tc_flops += c.tc_flops;
    total.cuda_flops += c.cuda_flops;
    total.gmem_read_bytes += c.gmem_read_bytes;
    total.gmem_write_bytes += c.gmem_write_bytes;
    total.smem_bytes += c.smem_bytes;
    total.grid_blocks += c.grid_blocks;
    total.occupancy = c.occupancy;
    total.blocks_per_sm = c.blocks_per_sm;
  }
  total.launches = 1;
  return total;
}

TEST(VarlenFuzz, CostOnBaseBsrEqualsPerElementBuildReference) {
  Rng rng(20261017);
  const BlockwiseParams shapes[] = {{16, 16}, {32, 16}, {16, 64}};
  const auto dev = gpusim::a100();
  for (int iter = 0; iter < 24; ++iter) {
    const std::int64_t seq =
        40 + static_cast<std::int64_t>(rng.next_below(100));
    const auto batch_n = static_cast<std::int64_t>(1 + rng.next_below(6));
    const BlockwiseParams p = shapes[rng.next_below(std::size(shapes))];
    masks::Mask base = random_base(rng, seq);
    if (rng.bernoulli(0.5)) base = base & masks::causal(seq);

    VarlenBatch batch{seq, {}};
    for (std::int64_t b = 0; b < batch_n; ++b) {
      // Repeat lengths now and then so the per-length dedup is exercised.
      const std::int64_t len =
          b > 0 && rng.bernoulli(0.3)
              ? batch.lengths.back()
              : static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(seq) + 1));
      batch.lengths.push_back(len);
    }
    if (iter % 2 == 1) {  // query windows: the chunked-prefill shape
      for (const auto len : batch.lengths) {
        batch.q_begins.push_back(static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(len) + 1)));
      }
    }
    batch.validate();

    const MhaDims dims{batch_n, 2, seq, 32};
    const auto got = varlen_cost(
        dims, sparse::BsrMask::build(base, p.block_m, p.block_n), batch, p,
        dev);
    const auto want = reference_cost(dims, base, batch, p, dev);
    SCOPED_TRACE(::testing::Message() << "iter=" << iter);
    EXPECT_EQ(got.tc_flops, want.tc_flops);
    EXPECT_EQ(got.cuda_flops, want.cuda_flops);
    EXPECT_EQ(got.gmem_read_bytes, want.gmem_read_bytes);
    EXPECT_EQ(got.gmem_write_bytes, want.gmem_write_bytes);
    EXPECT_EQ(got.smem_bytes, want.smem_bytes);
    EXPECT_EQ(got.grid_blocks, want.grid_blocks);
    EXPECT_EQ(got.occupancy, want.occupancy);
    EXPECT_EQ(got.blocks_per_sm, want.blocks_per_sm);
    EXPECT_EQ(got.launches, want.launches);
  }
}

TEST(VarlenFuzz, ShortElementIsChargedForItsLengthNotThePadding) {
  // One 40-token element padded to 128 and to 1024 rows: its Q read,
  // output write and grid cover its own ceil(40 / 16) = 3 block rows
  // (48 token rows) whatever the padding, and an explicit q_begin of 0
  // costs the same as none.
  const std::int64_t heads = 2, d = 32, len = 40;
  const BlockwiseParams p{16, 16};
  const auto dev = gpusim::a100();
  for (const std::int64_t seq : {128, 1024}) {
    SCOPED_TRACE(::testing::Message() << "seq=" << seq);
    const MhaDims dims{1, heads, seq, d};
    const auto base = bsr16(masks::dense(seq));
    const auto c = varlen_cost(dims, base, VarlenBatch{seq, {len}}, p, dev);
    EXPECT_EQ(c.gmem_write_bytes, static_cast<double>(heads * 48 * d * 2));
    EXPECT_EQ(c.grid_blocks, heads * 3);
    const auto windowed =
        varlen_cost(dims, base, VarlenBatch{seq, {len}, {0}}, p, dev);
    EXPECT_EQ(c.gmem_read_bytes, windowed.gmem_read_bytes);
    EXPECT_EQ(c.gmem_write_bytes, windowed.gmem_write_bytes);
    EXPECT_EQ(c.grid_blocks, windowed.grid_blocks);
  }
}

TEST(VarlenFuzz, RejectsBaseBsrThatDoesNotMatchTheLaunch) {
  const MhaDims dims{2, 1, 64, 16};
  Rng rng(3);
  TensorH q(dims.qkv_shape()), k(dims.qkv_shape()), v(dims.qkv_shape());
  q.fill_random(rng);
  k.fill_random(rng);
  v.fill_random(rng);
  const VarlenBatch batch{64, {64, 20}};
  const BlockwiseParams p{16, 16};
  const auto dev = gpusim::a100();
  const auto base = masks::causal(64);
  const sparse::BsrMask wrong_blocks[] = {
      sparse::BsrMask::build(base, 32, 16),   // block_m differs
      sparse::BsrMask::build(base, 16, 32),   // block_n differs
      bsr16(masks::causal(48)),               // seq_len differs
  };
  for (const auto& bsr : wrong_blocks) {
    EXPECT_THROW(varlen_attention(dims, q, k, v, bsr, batch, p), Error);
    EXPECT_THROW(varlen_cost(dims, bsr, batch, p, dev), Error);
  }
  // The matching base is accepted.
  EXPECT_NO_THROW(varlen_cost(dims, bsr16(base), batch, p, dev));
}

}  // namespace
}  // namespace stof::mha
