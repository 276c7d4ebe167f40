// Decode-continuation bit-identity: within one split-KV chunk (128
// positions, so all of these 48-position chains), a chain of single-token
// paged decode steps over a growing KV cache reproduces one full-sequence
// blockwise pass bit-for-bit (same mask, KV page size == BLOCK_N).  Past
// one chunk a decode row merges per-chunk softmax states and no longer
// equals the block-wise row; the serving engine does not need it to, since
// its preemption path re-prefills only to rebuild K/V and never re-commits
// an output row.  What past-chunk rows keep is batch independence and
// library/oracle identity.  The library kernels read the KV pool's FP32
// pages; the scalar reference kernels (the test oracle) read the same pages
// narrowed back to half, which is exact.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "oracle/oracle.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/rng.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/decode.hpp"
#include "stof/serve/kv_pool.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::mha {
namespace {

constexpr std::int64_t kHeads = 2;
constexpr std::int64_t kHeadSize = 32;
constexpr std::int64_t kTotal = 48;
constexpr std::int64_t kBlockTokens = 16;

struct Fixture {
  TensorH q, k, v;
  masks::Mask mask;

  explicit Fixture(std::uint64_t seed, masks::PatternKind kind,
                   std::int64_t total = kTotal)
      : q(Shape{kHeads, total, kHeadSize}),
        k(Shape{kHeads, total, kHeadSize}),
        v(Shape{kHeads, total, kHeadSize}),
        mask(masks::MaskSpec{.kind = kind, .seq_len = total}.build() &
             masks::causal(total)) {
    Rng rng(seed);
    q.fill_random(rng);
    k.fill_random(rng);
    v.fill_random(rng);
  }
};

constexpr std::int64_t kRow = kHeads * kHeadSize;
constexpr std::int64_t kPageElems = kBlockTokens * kRow;

/// Appends position `pos` of `f`'s K/V to session `id` of `pool`, widened
/// as the serving engine stores them.
void append_position(serve::KvPool& pool, serve::SessionId id,
                     const Fixture& f, std::int64_t pos) {
  auto slot = pool.append_token(id);
  ASSERT_TRUE(slot.has_value());
  for (std::int64_t h = 0; h < kHeads; ++h) {
    for (std::int64_t e = 0; e < kHeadSize; ++e) {
      slot->k[h * kHeadSize + e] = float(f.k.at(h, pos, e));
      slot->v[h * kHeadSize + e] = float(f.v.at(h, pos, e));
    }
  }
}

/// Decode of the last of `ctx` cached positions of session `id`, attending
/// `cols`: the library kernel over the pool's pages, or the oracle over
/// their half narrowing.
TensorH decode_step(const serve::KvPool& pool, serve::SessionId id,
                    std::int64_t ctx, std::span<const std::int32_t> cols,
                    const TensorH& q_step, bool oracle) {
  if (!oracle) {
    const PagedSeq seq{ctx, kBlockTokens, pool.k_blocks(id),
                       pool.v_blocks(id), cols};
    return decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q_step);
  }
  const oracle::HalfPages kh(pool.k_blocks(id), kPageElems, ctx * kRow);
  const oracle::HalfPages vh(pool.v_blocks(id), kPageElems, ctx * kRow);
  const oracle::PagedSeq seq{ctx, kBlockTokens, kh.pages(), vh.pages(), cols};
  return oracle::decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q_step);
}

/// Runs the decode chain against the full blockwise pass and asserts every
/// output row is byte-identical: the library kernels (decode over the KV
/// pool's pages, as the serving engine runs it), or the oracle's.
void expect_chain_matches_full_pass(const Fixture& f, bool oracle = false) {
  const MhaDims dims{1, kHeads, kTotal, kHeadSize};
  const BlockwiseParams params{16, 16};
  const auto bsr =
      sparse::BsrMask::build(f.mask, params.block_m, params.block_n);
  const TensorH full =
      oracle ? oracle::blockwise_attention(dims, f.q, f.k, f.v, bsr, params)
             : blockwise_attention(dims, f.q, f.k, f.v, bsr, params);

  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  for (std::int64_t pos = 0; pos < kTotal; ++pos) {
    append_position(pool, /*id=*/0, f, pos);

    // Single-token decode for this position.
    TensorH q_step(Shape{kHeads, 1, kHeadSize});
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_step.at(h, 0, e) = f.q.at(h, pos, e);
      }
    }
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j <= pos; ++j) {
      if (f.mask.at(pos, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    const TensorH step = decode_step(pool, 0, pos + 1, cols, q_step, oracle);

    // Byte-compare the step output to the full pass's row `pos`.
    for (std::int64_t h = 0; h < kHeads; ++h) {
      ASSERT_EQ(std::memcmp(&step.at(h, 0, 0), &full.at(h, pos, 0),
                            static_cast<std::size_t>(kHeadSize) *
                                sizeof(half)),
                0)
          << "pos=" << pos << " h=" << h;
    }
  }
}

TEST(DecodeSession, ChainBitIdenticalToBlockwisePassCausal) {
  expect_chain_matches_full_pass(Fixture(31, masks::PatternKind::kCausal));
}

TEST(DecodeSession, ChainBitIdenticalToBlockwisePassStrided) {
  expect_chain_matches_full_pass(Fixture(37, masks::PatternKind::kStrided));
}

TEST(DecodeSession, ChainBitIdenticalToBlockwisePassBigBird) {
  expect_chain_matches_full_pass(Fixture(41, masks::PatternKind::kBigBird));
}

TEST(DecodeSession, OracleChainBitIdenticalToOracleBlockwisePass) {
  expect_chain_matches_full_pass(Fixture(43, masks::PatternKind::kLongformer),
                                 /*oracle=*/true);
}

TEST(DecodeSession, ChainMatchesOracleChain) {
  // Library decode over the pool's FP32 pages against the oracle over their
  // half narrowing, at every context length and on every ISA.
  const Fixture f(47, masks::PatternKind::kBigBird);
  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  for (std::int64_t pos = 0; pos < kTotal; ++pos) {
    append_position(pool, 0, f, pos);
    TensorH q_step(Shape{kHeads, 1, kHeadSize});
    std::vector<std::int32_t> cols;
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_step.at(h, 0, e) = f.q.at(h, pos, e);
      }
    }
    for (std::int64_t j = 0; j <= pos; ++j) {
      if (f.mask.at(pos, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    const TensorH want = decode_step(pool, 0, pos + 1, cols, q_step, true);
    for (const core::Isa isa : core::available_isas()) {
      core::ScopedKernelIsa pin(isa);
      const TensorH got = decode_step(pool, 0, pos + 1, cols, q_step, false);
      ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            got.size_bytes()),
                0)
          << core::isa_name(isa) << " pos=" << pos;
    }
  }
}

TEST(DecodeSession, PreemptAndRecomputeIsByteIdentical) {
  // Preemption drops a session's pages and later recomputes its whole
  // prefix: after release + full re-ingest, decode outputs match a
  // never-preempted chain exactly.
  const Fixture f(59, masks::PatternKind::kCausal);
  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  const auto ingest_prefix = [&](std::int64_t upto) {
    for (std::int64_t pos = 0; pos < upto; ++pos) {
      append_position(pool, 0, f, pos);
    }
  };
  const auto decode_last = [&](std::int64_t ctx) {
    TensorH q_step(Shape{kHeads, 1, kHeadSize});
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_step.at(h, 0, e) = f.q.at(h, ctx - 1, e);
      }
    }
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j < ctx; ++j) {
      if (f.mask.at(ctx - 1, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    return decode_step(pool, 0, ctx, cols, q_step, false);
  };

  ingest_prefix(kTotal);
  const TensorH before = decode_last(kTotal);

  pool.release(0);  // preemption: pages dropped
  ingest_prefix(kTotal);
  const TensorH after = decode_last(kTotal);

  ASSERT_EQ(std::memcmp(before.data().data(), after.data().data(),
                        before.size_bytes()),
            0);
}

TEST(DecodeSession, ReusedPagesHoldOnlyTheirNewTenantsRows) {
  // Session A fills its pages, releases them, and session B gets the same
  // physical blocks with different content: every element B reads is B's.
  const Fixture a(61, masks::PatternKind::kCausal);
  const Fixture b(67, masks::PatternKind::kCausal);
  serve::KvPool pool(serve::KvPoolConfig{4, kBlockTokens, kHeads, kHeadSize});
  const std::int64_t ctx = 2 * kBlockTokens;
  for (std::int64_t pos = 0; pos < ctx; ++pos) append_position(pool, 0, a, pos);
  const float* a_first_page = pool.k_blocks(0)[0];
  pool.release(0);

  // Reuses the same physical blocks (the free list recycles).
  for (std::int64_t pos = 0; pos < ctx; ++pos) append_position(pool, 1, b, pos);
  const auto kf = pool.k_blocks(1);
  const auto vf = pool.v_blocks(1);
  ASSERT_EQ(kf.size(), 2u);
  ASSERT_EQ(kf[0], a_first_page);
  for (std::int64_t pos = 0; pos < ctx; ++pos) {
    const auto page = static_cast<std::size_t>(pos / kBlockTokens);
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        const std::int64_t i = (pos % kBlockTokens) * kRow + h * kHeadSize + e;
        ASSERT_EQ(kf[page][i], float(b.k.at(h, pos, e))) << "K " << pos;
        ASSERT_EQ(vf[page][i], float(b.v.at(h, pos, e))) << "V " << pos;
      }
    }
  }
  // A's and B's first keys differ, so a stale row would be visible above.
  ASSERT_NE(float(a.k.at(0, 0, 0)), float(b.k.at(0, 0, 0)));
}

TEST(DecodeSession, BatchedPagedDecodeMatchesPerSequenceCalls) {
  // Two sessions decoded in one batch must equal two independent calls —
  // per-(sequence, head) instances share nothing, and the split-KV chunks
  // of a row depend on its positions only.  Both contexts span three
  // chunks: the causal row attends all of them, the BigBird row (global
  // columns, window, random blocks) a subset.
  Fixture a(51, masks::PatternKind::kCausal, 340);
  Fixture b(53, masks::PatternKind::kBigBird, 340);
  serve::KvPool pool(
      serve::KvPoolConfig{48, kBlockTokens, kHeads, kHeadSize});
  const std::int64_t ctx_a = 340, ctx_b = 301;
  const auto ingest = [&](serve::SessionId id, const Fixture& f,
                          std::int64_t ctx) {
    for (std::int64_t pos = 0; pos < ctx; ++pos) {
      append_position(pool, id, f, pos);
    }
  };
  ingest(0, a, ctx_a);
  ingest(1, b, ctx_b);

  const auto cols_of = [](const Fixture& f, std::int64_t row) {
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j <= row; ++j) {
      if (f.mask.at(row, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    return cols;
  };
  const auto cols_a = cols_of(a, ctx_a - 1);
  const auto cols_b = cols_of(b, ctx_b - 1);
  ASSERT_EQ(decode_chunks(cols_a, kBlockTokens), 3);
  ASSERT_GE(decode_chunks(cols_b, kBlockTokens), 2);
  const PagedSeq seqs[2] = {{ctx_a, kBlockTokens, pool.k_blocks(0),
                             pool.v_blocks(0), cols_a},
                            {ctx_b, kBlockTokens, pool.k_blocks(1),
                             pool.v_blocks(1), cols_b}};

  TensorH q_batch(Shape{2 * kHeads, 1, kHeadSize});
  for (std::int64_t h = 0; h < kHeads; ++h) {
    for (std::int64_t e = 0; e < kHeadSize; ++e) {
      q_batch.at(h, 0, e) = a.q.at(h, ctx_a - 1, e);
      q_batch.at(kHeads + h, 0, e) = b.q.at(h, ctx_b - 1, e);
    }
  }
  const TensorH batched =
      decode_attention_paged(kHeads, kHeadSize, seqs, q_batch);

  for (int which = 0; which < 2; ++which) {
    TensorH q_one(Shape{kHeads, 1, kHeadSize});
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_one.at(h, 0, e) = q_batch.at(which * kHeads + h, 0, e);
      }
    }
    const TensorH alone = decode_attention_paged(
        kHeads, kHeadSize, {&seqs[which], 1}, q_one);
    for (std::int64_t h = 0; h < kHeads; ++h) {
      ASSERT_EQ(std::memcmp(&alone.at(h, 0, 0),
                            &batched.at(which * kHeads + h, 0, 0),
                            static_cast<std::size_t>(kHeadSize) *
                                sizeof(half)),
                0)
          << "seq=" << which << " h=" << h;
    }
  }
}

TEST(DecodeSession, PagedSeqValidation) {
  const float* none[1] = {nullptr};
  PagedSeq s{16, 16, {none, 1}, {none, 1}, {}};
  s.validate(2, 32);
  PagedSeq bad_block = s;
  bad_block.block_tokens = 12;  // not a power of two
  EXPECT_THROW(bad_block.validate(2, 32), Error);
  const std::int32_t out_of_ctx[] = {16};
  PagedSeq bad_cols = s;
  bad_cols.cols = out_of_ctx;
  EXPECT_THROW(bad_cols.validate(2, 32), Error);
  PagedSeq short_blocks = s;
  short_blocks.context_len = 17;  // needs two blocks, has one
  EXPECT_THROW(short_blocks.validate(2, 32), Error);
}

// ---- Paged prefill: the block-wise kernel over KV-pool pages ---------------

/// Every prefill window [begin, len) of a context whose K/V sit in a KV
/// pool must equal the oracle's padded-tensor block-wise pass over the same
/// prefix BSR, byte for byte: the oracle over the pool's pages narrowed to
/// half, and the library kernel over the pool's FP32 pages on every ISA.
void expect_paged_prefill_matches_padded(masks::PatternKind kind,
                                         std::int64_t len) {
  constexpr std::int64_t kSeq = 64;  // padded length of the base BSR
  const BlockwiseParams params{16, 16};
  const std::int64_t row = kHeads * kHeadSize;
  const MhaDims dims{1, kHeads, kSeq, kHeadSize};
  TensorH q(dims.qkv_shape()), k(dims.qkv_shape()), v(dims.qkv_shape());
  Rng rng(50 + static_cast<std::uint64_t>(len));
  q.fill_random(rng);
  k.fill_random(rng);
  v.fill_random(rng);
  const auto base = sparse::BsrMask::build(
      masks::MaskSpec{.kind = kind, .seq_len = kSeq}.build() &
          masks::causal(kSeq),
      params.block_m, params.block_n);
  const sparse::BsrMask prefix = base.prefix(len);

  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  // Token-major rows, as the pool and the serving engine store them.
  const auto token_rows = [&](const TensorH& t, std::int64_t lo) {
    std::vector<half> out(static_cast<std::size_t>((len - lo) * row));
    for (std::int64_t pos = lo; pos < len; ++pos) {
      for (std::int64_t h = 0; h < kHeads; ++h) {
        std::memcpy(&out[static_cast<std::size_t>((pos - lo) * row +
                                                  h * kHeadSize)],
                    &t.at(h, pos, 0), kHeadSize * sizeof(half));
      }
    }
    return out;
  };
  const auto k_rows = token_rows(k, 0);
  const auto v_rows = token_rows(v, 0);
  for (std::int64_t pos = 0; pos < len; ++pos) {
    auto slot = pool.append_token(0);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t e = 0; e < row; ++e) {
      slot->k[e] = float(k_rows[static_cast<std::size_t>(pos * row + e)]);
      slot->v[e] = float(v_rows[static_cast<std::size_t>(pos * row + e)]);
    }
  }
  const oracle::HalfPages kh(pool.k_blocks(0), kPageElems, len * row);
  const oracle::HalfPages vh(pool.v_blocks(0), kPageElems, len * row);

  for (const std::int64_t begin : {std::int64_t{0}, std::int64_t{19},
                                   std::int64_t{32}, len - 1}) {
    const std::int64_t q_lo = begin / params.block_m * params.block_m;
    const std::int64_t qb_hi = (len + params.block_m - 1) / params.block_m;
    const TensorH want =
        oracle::blockwise_attention(dims, q, k, v, prefix, params, nullptr,
                                    q_lo / params.block_m, qb_hi);
    const auto want_rows = token_rows(want, begin);
    const auto q_rows = token_rows(q, q_lo);
    std::vector<half> out(want_rows.size());
    const auto matches = [&] {
      return std::memcmp(out.data(), want_rows.data(),
                         out.size() * sizeof(half)) == 0;
    };
    oracle::blockwise_attention_paged(
        kHeads, kHeadSize,
        oracle::PagedSeq{len, kBlockTokens, kh.pages(), vh.pages(), {}},
        prefix, params, q_rows, q_lo, out, begin);
    EXPECT_TRUE(matches()) << "oracle begin=" << begin;
    const PagedSeq kv{len, kBlockTokens, pool.k_blocks(0), pool.v_blocks(0),
                      {}};
    for (const core::Isa isa : core::available_isas()) {
      core::ScopedKernelIsa pin(isa);
      std::fill(out.begin(), out.end(), half{});
      blockwise_attention_paged(kHeads, kHeadSize, kv, prefix, params, q_rows,
                                q_lo, out, begin);
      EXPECT_TRUE(matches()) << core::isa_name(isa) << " begin=" << begin;
    }
  }
}

TEST(PagedPrefill, WindowsMatchPaddedPassOnEverySource) {
  for (const auto kind : {masks::PatternKind::kCausal,
                          masks::PatternKind::kBigBird,
                          masks::PatternKind::kStrided}) {
    for (const std::int64_t len : {std::int64_t{33}, std::int64_t{48},
                                   std::int64_t{64}}) {
      expect_paged_prefill_matches_padded(kind, len);
    }
  }
}

// ---- KV widening accounting ----------------------------------------------

TEST(KvPool, DecodeWideningWorkIsConstantPerStep) {
  // Drive an N-step single-session decode through a KV pool.  Every step
  // appends one token, so the pool must count exactly heads*head_size
  // widened elements per side per step — O(1) rows, independent of the
  // context length — and the outputs must match the oracle over the pages'
  // half narrowing bit for bit.
  constexpr std::int64_t kStepHeads = 2, kStepHeadSize = 16, kSteps = 40,
                         kStepBlockTokens = 8;
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  const serve::KvPoolConfig cfg{8, kStepBlockTokens, kStepHeads,
                                kStepHeadSize};
  serve::KvPool pool(cfg);
  Rng rng(71);
  TensorH q(Shape{kStepHeads, 1, kStepHeadSize});

  const std::int64_t per_side_elems = kStepHeads * kStepHeadSize;
  std::int64_t prev_bytes = 0;
  for (std::int64_t pos = 0; pos < kSteps; ++pos) {
    auto slot = pool.append_token(0);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t i = 0; i < per_side_elems; ++i) {
      slot->k[i] = float(half(rng.next_double() - 0.5));
      slot->v[i] = float(half(rng.next_double() - 0.5));
    }
    q.fill_random(rng);

    std::vector<std::int32_t> cols;  // dense causal context
    for (std::int64_t j = 0; j <= pos; ++j) {
      cols.push_back(static_cast<std::int32_t>(j));
    }
    const PagedSeq seq{pos + 1, kStepBlockTokens, pool.k_blocks(0),
                       pool.v_blocks(0), cols};
    const oracle::HalfPages kh(pool.k_blocks(0), cfg.block_elems(),
                               (pos + 1) * per_side_elems);
    const oracle::HalfPages vh(pool.v_blocks(0), cfg.block_elems(),
                               (pos + 1) * per_side_elems);
    const oracle::PagedSeq half_seq{pos + 1, kStepBlockTokens, kh.pages(),
                                    vh.pages(), cols};

    const TensorH got =
        decode_attention_paged(kStepHeads, kStepHeadSize, {&seq, 1}, q);
    const TensorH want = oracle::decode_attention_paged(
        kStepHeads, kStepHeadSize, {&half_seq, 1}, q);
    ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          got.size_bytes()),
              0)
        << "diverged from the oracle at step " << pos;

    // Per-step widening: exactly one new token's rows per side.
    const std::int64_t bytes = telemetry::global_registry().counter(
        "serve.kv.sidecar_bytes_converted");
    EXPECT_EQ(bytes - prev_bytes, 2 * per_side_elems * 2)
        << "step " << pos << " counted more than the appended token";
    prev_bytes = bytes;
  }
  // Linear total: N steps, one token per step, 2 half-bytes per element.
  EXPECT_EQ(prev_bytes, kSteps * 2 * per_side_elems * 2);
}

TEST(KvPool, RewrittenRowsHoldTheirNewValues) {
  // A private tail page is filled, truncated mid-page (a speculative
  // rollback), and refilled with different rows.  Every stored row must
  // then be the value last written at its position, and only the rewritten
  // rows count as widened again.
  const serve::KvPoolConfig cfg{4, kBlockTokens, kHeads, kHeadSize};
  const std::int64_t row = kHeads * kHeadSize;
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  serve::KvPool pool(cfg);
  Rng rng(89);
  // Expected contents, token-major, K then V per token.
  std::vector<std::vector<float>> expect;
  const auto append = [&](std::int64_t n, float lo, float hi) {
    for (std::int64_t t = 0; t < n; ++t) {
      auto slot = pool.append_token(0);
      ASSERT_TRUE(slot.has_value());
      std::vector<float>& want = expect.emplace_back(2 * row);
      for (std::int64_t e = 0; e < row; ++e) {
        slot->k[e] = want[e] = float(half(rng.uniform(lo, hi)));
        slot->v[e] = want[row + e] = float(half(rng.uniform(lo, hi)));
      }
    }
  };
  // Page 0 full, page 1 holding 6 rows.
  append(kBlockTokens + 6, -1.0f, 0.0f);
  pool.truncate(0, kBlockTokens + 2);
  expect.resize(kBlockTokens + 2);
  const std::int64_t before = telemetry::global_registry().counter(
      "serve.kv.sidecar_bytes_converted");
  append(5, 0.5f, 2.0f);  // rows 2..6 of page 1, other signs and scales
  // 5 rewritten rows per side, counted as 2 source bytes per element.
  EXPECT_EQ(telemetry::global_registry().counter(
                "serve.kv.sidecar_bytes_converted") -
                before,
            5 * row * 2 * 2);

  ASSERT_EQ(pool.tokens(0), static_cast<std::int64_t>(expect.size()));
  for (std::int64_t t = 0; t < pool.tokens(0); ++t) {
    const auto page = static_cast<std::size_t>(t / kBlockTokens);
    const std::int64_t r = t % kBlockTokens;
    const float* k = pool.k_blocks(0)[page] + r * row;
    const float* v = pool.v_blocks(0)[page] + r * row;
    const auto& want = expect[static_cast<std::size_t>(t)];
    for (std::int64_t e = 0; e < row; ++e) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(k[e]),
                std::bit_cast<std::uint32_t>(want[e]))
          << "K token " << t << " elem " << e;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(v[e]),
                std::bit_cast<std::uint32_t>(want[row + e]))
          << "V token " << t << " elem " << e;
    }
  }
}

TEST(DecodeSession, BatchedCostScalesWithContextAndBatch) {
  const auto dev = gpusim::a100();
  const std::int64_t one_ctx[] = {128};
  const std::int64_t many_ctx[] = {128, 128, 128, 128, 128, 128, 128, 128};
  const std::int64_t one_row_each[] = {1, 1, 1, 1, 1, 1, 1, 1};
  const auto c1 = decode_verify_cost(4, 64, one_ctx, {one_row_each, 1},
                                     {one_row_each, 1}, dev);
  const auto c8 =
      decode_verify_cost(4, 64, many_ctx, one_row_each, one_row_each, dev);
  EXPECT_EQ(c1.launches, 1);
  EXPECT_EQ(c8.launches, 1);
  EXPECT_NEAR(c8.cuda_flops, 8.0 * c1.cuda_flops, 1e-6);
  // Eight sequences in one launch beat eight single-sequence launches on
  // simulated time: launch overhead is paid once, the grid is 8x larger.
  const double t1 = gpusim::estimate_time_us(c1, dev);
  const double t8 = gpusim::estimate_time_us(c8, dev);
  EXPECT_LT(t8, 8.0 * t1);
}

}  // namespace
}  // namespace stof::mha
