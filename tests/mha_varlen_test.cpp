// Tests for variable-length batch attention: functional equivalence with
// per-element truncated-mask references, zero-padding guarantees, and the
// padding-waste cost savings.
#include <gtest/gtest.h>

#include "stof/core/rng.hpp"
#include "stof/mha/reference.hpp"
#include "stof/mha/varlen.hpp"

namespace stof::mha {
namespace {

struct Inputs {
  TensorH q, k, v;
};

/// The base BSR the varlen API takes, at the given kernel block size.
sparse::BsrMask bsr(const masks::Mask& base,
                    const BlockwiseParams& p = {16, 16}) {
  return sparse::BsrMask::build(base, p.block_m, p.block_n);
}

Inputs make_inputs(const MhaDims& dims, std::uint64_t seed) {
  Rng rng(seed);
  Inputs in{TensorH(dims.qkv_shape()), TensorH(dims.qkv_shape()),
            TensorH(dims.qkv_shape())};
  in.q.fill_random(rng);
  in.k.fill_random(rng);
  in.v.fill_random(rng);
  return in;
}

TEST(VarlenBatch, StatsAndValidation) {
  VarlenBatch b{64, {64, 32, 16}};
  b.validate();
  EXPECT_EQ(b.batch(), 3);
  EXPECT_EQ(b.total_valid_tokens(), 112);
  EXPECT_NEAR(b.padding_ratio(), 1.0 - 112.0 / 192.0, 1e-12);

  // Zero-length (fully padded) elements are valid batch members.
  VarlenBatch with_empty{64, {64, 0}};
  with_empty.validate();
  EXPECT_EQ(with_empty.total_valid_tokens(), 64);

  EXPECT_THROW((VarlenBatch{64, {64, -1}}).validate(), Error);
  EXPECT_THROW((VarlenBatch{64, {65}}).validate(), Error);
  EXPECT_THROW((VarlenBatch{64, {}}).validate(), Error);
}

TEST(EffectiveMask, RestrictsToValidSquare) {
  const auto base = masks::dense(16);
  const auto m = effective_mask(base, 5);
  for (std::int64_t i = 0; i < 16; ++i) {
    for (std::int64_t j = 0; j < 16; ++j) {
      EXPECT_EQ(m.at(i, j), i < 5 && j < 5) << i << "," << j;
    }
  }
  EXPECT_EQ(effective_mask(base, 0).valid_count(), 0);
  EXPECT_THROW(effective_mask(base, -1), Error);
  EXPECT_THROW(effective_mask(base, 17), Error);
}

TEST(VarlenAttention, MatchesPerElementReference) {
  const MhaDims dims{3, 2, 48, 16};
  const Inputs in = make_inputs(dims, 7);
  const auto base = masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                                    .seq_len = 48}
                        .build();
  const VarlenBatch batch{48, {48, 30, 12}};
  const TensorH got =
      varlen_attention(dims, in.q, in.k, in.v, bsr(base), batch);

  // Reference: each batch element independently, under its own mask.
  for (std::int64_t b = 0; b < 3; ++b) {
    const MhaDims one{1, 2, 48, 16};
    Inputs sub{TensorH(one.qkv_shape()), TensorH(one.qkv_shape()),
               TensorH(one.qkv_shape())};
    for (std::int64_t h = 0; h < 2; ++h) {
      for (std::int64_t s = 0; s < 48; ++s) {
        for (std::int64_t e = 0; e < 16; ++e) {
          sub.q.at(h, s, e) = in.q.at(b * 2 + h, s, e);
          sub.k.at(h, s, e) = in.k.at(b * 2 + h, s, e);
          sub.v.at(h, s, e) = in.v.at(b * 2 + h, s, e);
        }
      }
    }
    const TensorH ref = reference_attention(
        one, sub.q, sub.k, sub.v,
        effective_mask(base, batch.lengths[static_cast<std::size_t>(b)]));
    for (std::int64_t h = 0; h < 2; ++h) {
      for (std::int64_t s = 0; s < 48; ++s) {
        for (std::int64_t e = 0; e < 16; ++e) {
          EXPECT_NEAR(float(got.at(b * 2 + h, s, e)), float(ref.at(h, s, e)),
                      4e-3)
              << "b=" << b << " s=" << s;
        }
      }
    }
  }
}

TEST(VarlenAttention, PaddedRowsAreZero) {
  const MhaDims dims{2, 2, 32, 8};
  const Inputs in = make_inputs(dims, 9);
  const VarlenBatch batch{32, {32, 10}};
  const TensorH out = varlen_attention(dims, in.q, in.k, in.v,
                                       bsr(masks::dense(32)), batch);
  // Element 1: rows >= 10 are padding -> zero output.
  for (std::int64_t h = 0; h < 2; ++h) {
    for (std::int64_t s = 10; s < 32; ++s) {
      for (std::int64_t e = 0; e < 8; ++e) {
        EXPECT_EQ(float(out.at(2 + h, s, e)), 0.0f) << s;
      }
    }
  }
}

TEST(VarlenAttention, FullLengthsEqualRegularAttention) {
  const MhaDims dims{2, 2, 32, 8};
  const Inputs in = make_inputs(dims, 11);
  const auto base = masks::MaskSpec{.kind = masks::PatternKind::kLongformer,
                                    .seq_len = 32}
                        .build();
  const VarlenBatch batch{32, {32, 32}};
  const TensorH a =
      varlen_attention(dims, in.q, in.k, in.v, bsr(base), batch);
  const TensorH b = reference_attention(dims, in.q, in.k, in.v, base);
  EXPECT_LT(max_abs_diff(a, b), 4e-3);
}

TEST(VarlenAttention, RejectsMismatchedBatch) {
  const MhaDims dims{2, 2, 32, 8};
  const Inputs in = make_inputs(dims, 13);
  const VarlenBatch wrong{32, {32}};  // one length for batch of two
  EXPECT_THROW(varlen_attention(dims, in.q, in.k, in.v,
                                bsr(masks::dense(32)), wrong),
               Error);
}

TEST(VarlenCost, ShortSequencesCostLessThanPadded) {
  const MhaDims dims{8, 12, 1024, 64};
  const auto dev = gpusim::a100();
  const auto base = masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                                    .seq_len = 1024}
                        .build();
  const BlockwiseParams p{64, 64, 4};
  // Heavily padded batch: most sequences are short.
  const VarlenBatch varlen{1024, {1024, 256, 128, 128, 128, 128, 64, 64}};
  const VarlenBatch padded{1024, std::vector<std::int64_t>(8, 1024)};
  const double t_varlen = gpusim::estimate_time_us(
      varlen_cost(dims, bsr(base, p), varlen, p, dev), dev);
  const double t_padded = gpusim::estimate_time_us(
      varlen_cost(dims, bsr(base, p), padded, p, dev), dev);
  EXPECT_LT(t_varlen, 0.5 * t_padded);
}

TEST(VarlenCost, PaddedBatchMatchesRegularKernel) {
  // All-full lengths must cost the same work as the regular block-wise
  // kernel on the same mask (modulo identical structure).
  const MhaDims dims{4, 12, 512, 64};
  const auto dev = gpusim::rtx4090();
  const auto base = masks::MaskSpec{.kind = masks::PatternKind::kSlidingWindow,
                                    .seq_len = 512}
                        .build();
  const BlockwiseParams p{64, 64, 4};
  const VarlenBatch full{512, std::vector<std::int64_t>(4, 512)};
  const auto varlen = varlen_cost(dims, bsr(base, p), full, p, dev);
  const auto regular = blockwise_cost(
      dims, sparse::BsrMask::build(base, 64, 64), p, dev);
  EXPECT_NEAR(varlen.tc_flops, regular.tc_flops, 1.0);
  EXPECT_EQ(varlen.grid_blocks, regular.grid_blocks);
}

TEST(VarlenCost, SingleLaunchRegardlessOfBatch) {
  const MhaDims dims{16, 12, 256, 64};
  const VarlenBatch batch{256, std::vector<std::int64_t>(16, 128)};
  const BlockwiseParams p{64, 64, 4};
  const auto c =
      varlen_cost(dims, bsr(masks::dense(256), p), batch, p, gpusim::a100());
  EXPECT_EQ(c.launches, 1);
}

}  // namespace
}  // namespace stof::mha
