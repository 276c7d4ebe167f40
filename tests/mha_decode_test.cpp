// Tests for the paged decode attention kernel and its cost routine, over
// KV pool pages built from dense per-instance cache tensors.
#include <gtest/gtest.h>

#include "stof/core/rng.hpp"
#include "stof/mha/decode.hpp"
#include "stof/mha/reference.hpp"
#include "stof/sparse/bsr_mask.hpp"

namespace stof::mha {
namespace {

constexpr std::int64_t kBlockTokens = 16;

/// One decode step's operands: q is (batch*heads, 1, d); k/v are the dense
/// caches (batch*heads, ctx, d).
struct Cache {
  std::int64_t batch, heads, ctx, d;
  TensorH q, k, v;
};

Cache make_cache(std::int64_t batch, std::int64_t heads, std::int64_t ctx,
                 std::int64_t d, std::uint64_t seed) {
  Rng rng(seed);
  Cache c{batch,
          heads,
          ctx,
          d,
          TensorH(Shape{batch * heads, 1, d}),
          TensorH(Shape{batch * heads, ctx, d}),
          TensorH(Shape{batch * heads, ctx, d})};
  c.q.fill_random(rng);
  c.k.fill_random(rng);
  c.v.fill_random(rng);
  return c;
}

/// A cache tensor re-laid as KV pool pages: page (b, i) holds positions
/// [i*kBlockTokens, (i+1)*kBlockTokens) of sequence b as (tokens, heads,
/// d) row-major FP32 widened from half, as the pool stores them.  Positions
/// past ctx stay zero.
struct Pages {
  std::vector<float> storage;
  std::vector<const float*> ptrs;  ///< sequence-major, blocks per sequence
};

Pages paginate(const Cache& c, const TensorH& t) {
  const std::int64_t blocks = (c.ctx + kBlockTokens - 1) / kBlockTokens;
  const std::int64_t page = kBlockTokens * c.heads * c.d;
  Pages p;
  p.storage.resize(static_cast<std::size_t>(c.batch * blocks * page));
  for (std::int64_t b = 0; b < c.batch; ++b) {
    for (std::int64_t h = 0; h < c.heads; ++h) {
      for (std::int64_t j = 0; j < c.ctx; ++j) {
        for (std::int64_t e = 0; e < c.d; ++e) {
          p.storage[static_cast<std::size_t>(
              (b * blocks + j / kBlockTokens) * page +
              ((j % kBlockTokens) * c.heads + h) * c.d + e)] =
              float(t.at(b * c.heads + h, j, e));
        }
      }
    }
  }
  for (std::int64_t i = 0; i < c.batch * blocks; ++i) {
    p.ptrs.push_back(p.storage.data() + i * page);
  }
  return p;
}

/// Decode every sequence of `c` over its pages, attending `cols`.
TensorH decode(const Cache& c, std::span<const std::int32_t> cols,
               const TensorH& q) {
  const Pages k = paginate(c, c.k);
  const Pages v = paginate(c, c.v);
  const auto blocks =
      static_cast<std::size_t>((c.ctx + kBlockTokens - 1) / kBlockTokens);
  std::vector<PagedSeq> seqs;
  for (std::int64_t b = 0; b < c.batch; ++b) {
    const auto first = static_cast<std::size_t>(b) * blocks;
    seqs.push_back(PagedSeq{c.ctx,
                            kBlockTokens,
                            {k.ptrs.data() + first, blocks},
                            {v.ptrs.data() + first, blocks},
                            cols});
  }
  return decode_attention_paged(c.heads, c.d, seqs, q);
}

TEST(DecodeColumns, ExtractsRowOfMask) {
  const auto bsr = sparse::BsrMask::build(masks::causal(8), 16, 16);
  std::vector<std::int32_t> cols;
  bsr.row_cols(5, cols);
  EXPECT_EQ(cols, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_THROW(bsr.row_cols(8, cols), Error);
}

/// Decoding the (n)th token over an n-token cache must equal the last row
/// of full attention with the same mask.
void expect_decode_matches_reference_last_row(std::int64_t ctx) {
  const Cache c = make_cache(2, 3, ctx, 16, 17);

  const MhaDims full{2, 3, ctx, 16};
  const auto mask = masks::MaskSpec{.kind = masks::PatternKind::kLongformer,
                                    .seq_len = ctx}
                        .build();
  // Full attention with Q equal to K everywhere except the last row, which
  // is the decode query.
  TensorH q_full = c.k;
  for (std::int64_t bh = 0; bh < full.instances(); ++bh) {
    for (std::int64_t e = 0; e < 16; ++e) {
      q_full.at(bh, ctx - 1, e) = c.q.at(bh, 0, e);
    }
  }
  const TensorH ref = reference_attention(full, q_full, c.k, c.v, mask);

  std::vector<std::int32_t> cols;
  sparse::BsrMask::build(mask, 16, 16).row_cols(ctx - 1, cols);
  if (ctx > kDecodeChunkTokens) {
    ASSERT_GT(decode_chunks(cols, kBlockTokens), 1);
  }
  const TensorH got = decode(c, cols, c.q);
  for (std::int64_t bh = 0; bh < full.instances(); ++bh) {
    for (std::int64_t e = 0; e < 16; ++e) {
      EXPECT_NEAR(float(got.at(bh, 0, e)), float(ref.at(bh, ctx - 1, e)),
                  4e-3)
          << bh << "," << e;
    }
  }
}

TEST(DecodeAttention, MatchesReferenceLastRow) {
  expect_decode_matches_reference_last_row(24);
}

TEST(DecodeAttention, SplitKvMatchesReferenceLastRow) {
  // 300 positions span three 128-token chunks, so the row merges.
  expect_decode_matches_reference_last_row(300);
}

TEST(DecodeAttention, EmptyColumnsYieldZeros) {
  const Cache c = make_cache(1, 2, 8, 4, 3);
  const TensorH out = decode(c, {}, c.q);
  for (const auto v : out.data()) EXPECT_EQ(float(v), 0.0f);
}

TEST(DecodeAttention, SingleColumnCopiesV) {
  const Cache c = make_cache(1, 2, 8, 4, 4);
  const std::int32_t col[] = {5};
  const TensorH out = decode(c, col, c.q);
  for (std::int64_t bh = 0; bh < 2; ++bh) {
    for (std::int64_t e = 0; e < 4; ++e) {
      EXPECT_NEAR(float(out.at(bh, 0, e)), float(c.v.at(bh, 5, e)), 4e-3);
    }
  }
}

TEST(DecodeAttention, RejectsBadShapesAndColumns) {
  const Cache c = make_cache(1, 2, 8, 4, 5);
  const std::int32_t ok[] = {0};
  const TensorH bad_q(Shape{2, 2, 4});
  EXPECT_THROW(decode(c, ok, bad_q), Error);
  const std::int32_t past_context[] = {8};
  EXPECT_THROW(decode(c, past_context, c.q), Error);
  const std::int32_t negative[] = {-1};
  EXPECT_THROW(decode(c, negative, c.q), Error);
  const std::int32_t unsorted[] = {3, 1};
  EXPECT_THROW(decode(c, unsorted, c.q), Error);
}

TEST(DecodeCost, ScalesWithAttendedColumns) {
  const auto dev = gpusim::a100();
  const std::int64_t rows[] = {1, 1, 1, 1};
  const std::int64_t sparse_cols[] = {64, 64, 64, 64};
  const std::int64_t sparse_chunks[] = {1, 1, 1, 1};
  const std::int64_t dense_cols[] = {2048, 2048, 2048, 2048};
  const std::int64_t dense_chunks[] = {16, 16, 16, 16};
  const double sparse = gpusim::estimate_time_us(
      decode_verify_cost(12, 64, sparse_cols, sparse_chunks, rows, dev), dev);
  const double dense = gpusim::estimate_time_us(
      decode_verify_cost(12, 64, dense_cols, dense_chunks, rows, dev), dev);
  EXPECT_GT(dense, sparse * 2.0);
  const std::int64_t negative[] = {64, -1, 64, 64};
  EXPECT_THROW(
      decode_verify_cost(12, 64, negative, sparse_chunks, rows, dev), Error);
  EXPECT_THROW(decode_verify_cost(12, 64, std::span(sparse_cols).first(3),
                                  std::span(sparse_chunks).first(3), rows,
                                  dev),
               Error);
  // A chunk count must not exceed the row's attended columns, and a row
  // with columns runs at least one chunk.
  const std::int64_t too_many[] = {1, 65, 1, 1};
  EXPECT_THROW(decode_verify_cost(12, 64, sparse_cols, too_many, rows, dev),
               Error);
  const std::int64_t none[] = {1, 0, 1, 1};
  EXPECT_THROW(decode_verify_cost(12, 64, sparse_cols, none, rows, dev),
               Error);
  EXPECT_THROW(decode_verify_cost(12, 64, sparse_cols,
                                  std::span(sparse_chunks).first(3), rows,
                                  dev),
               Error);
}

TEST(DecodeCost, LaunchBoundAtTinyBatch) {
  const auto dev = gpusim::rtx4090();
  const std::int64_t cols[] = {16};
  const std::int64_t chunks[] = {1};
  const std::int64_t rows[] = {1};
  const double t = gpusim::estimate_time_us(
      decode_verify_cost(12, 64, cols, chunks, rows, dev), dev);
  EXPECT_LT(t, 2.0 * dev.launch_overhead_us);
}

TEST(DecodeChunks, CountsChunksHoldingAttendedColumns) {
  EXPECT_EQ(decode_chunk_tokens(16), kDecodeChunkTokens);
  EXPECT_EQ(decode_chunk_tokens(256), 256);
  EXPECT_EQ(decode_chunks({}, 16), 0);
  const std::int32_t one_chunk[] = {0, 5, 127};
  EXPECT_EQ(decode_chunks(one_chunk, 16), 1);
  // Chunk 1 ([128, 256)) holds no column: only chunks 0, 2 and 3 run.
  const std::int32_t gap[] = {3, 256, 300, 383, 384};
  EXPECT_EQ(decode_chunks(gap, 16), 3);
  EXPECT_EQ(decode_chunks(gap, 512), 1);
}

/// Simulated time of one plain decode step of `batch` causal rows at
/// context `ctx` (heads 4, head_size 32), split per decode_chunks or, with
/// `split` false, one warp per (row, head) as before the split.
double causal_decode_us(std::int64_t batch, std::int64_t ctx, bool split,
                        const gpusim::DeviceSpec& dev) {
  std::vector<std::int32_t> cols(static_cast<std::size_t>(ctx));
  for (std::int64_t j = 0; j < ctx; ++j) {
    cols[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(j);
  }
  const std::vector<std::int64_t> valid(static_cast<std::size_t>(batch), ctx);
  const std::vector<std::int64_t> chunks(
      static_cast<std::size_t>(batch),
      split ? decode_chunks(cols, kBlockTokens) : 1);
  const std::vector<std::int64_t> rows(static_cast<std::size_t>(batch), 1);
  return gpusim::estimate_time_us(
      decode_verify_cost(4, 32, valid, chunks, rows, dev), dev);
}

TEST(DecodeCost, SplitKvFillsTheGpuAtLongContext) {
  // One warp per (row, head) put a batch-1 4-head decode on one block of
  // one SM; split per 128-token chunk it spreads over 16x the warps.
  const auto dev = gpusim::a100();
  const double unsplit = causal_decode_us(1, 2048, false, dev);
  const double split = causal_decode_us(1, 2048, true, dev);
  EXPECT_NEAR(unsplit, 52.2, 0.1);
  EXPECT_LT(split * 5.0, unsplit);
  // No (batch, ctx) cell gets slower; a one-chunk context is unchanged.
  for (const std::int64_t batch : {1, 8, 64}) {
    for (const std::int64_t ctx : {128, 256, 2048}) {
      const double before = causal_decode_us(batch, ctx, false, dev);
      const double after = causal_decode_us(batch, ctx, true, dev);
      EXPECT_LE(after, before) << "batch " << batch << " ctx " << ctx;
      if (ctx <= kDecodeChunkTokens) {
        EXPECT_EQ(after, before) << "batch " << batch;
      }
    }
  }
}

}  // namespace
}  // namespace stof::mha
