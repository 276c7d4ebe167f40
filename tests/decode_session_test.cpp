// Decode-continuation bit-identity: a chain of single-token paged decode
// steps over a growing KV cache must reproduce one full-sequence blockwise
// pass bit-for-bit (same mask, KV page size == BLOCK_N).  This is the
// invariant the serving engine's preemption/recompute path relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
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
  masks::Mask mask{kTotal};

  explicit Fixture(std::uint64_t seed, masks::PatternKind kind)
      : q(Shape{kHeads, kTotal, kHeadSize}),
        k(Shape{kHeads, kTotal, kHeadSize}),
        v(Shape{kHeads, kTotal, kHeadSize}) {
    Rng rng(seed);
    q.fill_random(rng);
    k.fill_random(rng);
    v.fill_random(rng);
    mask = masks::MaskSpec{.kind = kind, .seq_len = kTotal}.build() &
           masks::causal(kTotal);
  }
};

/// Runs the decode chain against the full blockwise pass and asserts every
/// output row is byte-identical.  In packed mode the chain reads the KV
/// pool's float sidecar pages (converted row by row as they fill), as the
/// serving engine does; the scalar reference reads the half pages.
void expect_chain_matches_full_pass(const Fixture& f) {
  const MhaDims dims{1, kHeads, kTotal, kHeadSize};
  const BlockwiseParams params{16, 16};
  const TensorH full = blockwise_attention(
      dims, f.q, f.k, f.v,
      sparse::BsrMask::build(f.mask, params.block_m, params.block_n), params);

  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  for (std::int64_t pos = 0; pos < kTotal; ++pos) {
    // Append position pos's K/V to the paged cache.
    auto slot = pool.append_token(/*id=*/0);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
        slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
      }
    }

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
    const PagedSeq seq{pos + 1, kBlockTokens, pool.k_blocks(0),
                       pool.v_blocks(0), cols,
                       packed_execution_enabled() ? pool.float_pages(0)
                                                  : KvFloatPages{}};
    const TensorH step =
        decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q_step);

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

TEST(DecodeSession, ChainBitIdenticalUnderScalarExecution) {
  ScopedPackedExecution scalar(false);
  expect_chain_matches_full_pass(Fixture(43, masks::PatternKind::kLongformer));
}

TEST(DecodeSession, PreemptAndRecomputeWithSidecarIsByteIdentical) {
  // Preemption drops a session's pages and later recomputes its whole
  // prefix.  The sidecar must follow the pages: after release + full
  // re-ingest, decode outputs match a never-preempted chain exactly.
  const Fixture f(59, masks::PatternKind::kCausal);
  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  const auto ingest_prefix = [&](std::int64_t upto) {
    for (std::int64_t pos = 0; pos < upto; ++pos) {
      auto slot = pool.append_token(/*id=*/0);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t h = 0; h < kHeads; ++h) {
        for (std::int64_t e = 0; e < kHeadSize; ++e) {
          slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
          slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
        }
      }
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
    const PagedSeq seq{ctx, kBlockTokens, pool.k_blocks(0), pool.v_blocks(0),
                       cols, pool.float_pages(0)};
    return decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q_step);
  };

  ingest_prefix(kTotal);
  const TensorH before = decode_last(kTotal);

  pool.release(0);  // preemption: pages and their sidecar rows dropped
  ingest_prefix(kTotal);
  const TensorH after = decode_last(kTotal);

  ASSERT_EQ(std::memcmp(before.data().data(), after.data().data(),
                        before.size_bytes()),
            0);
}

TEST(DecodeSession, ReusedPagesNeverServeStalePanels) {
  // Session A converts its pages, releases them, and session B gets the
  // same physical blocks with different content.  B's sidecar must reflect
  // B's halfs, never A's cached floats.
  const Fixture a(61, masks::PatternKind::kCausal);
  const Fixture b(67, masks::PatternKind::kCausal);
  serve::KvPool pool(serve::KvPoolConfig{4, kBlockTokens, kHeads, kHeadSize});
  const std::int64_t ctx = 2 * kBlockTokens;
  const auto ingest = [&](serve::SessionId id, const Fixture& f) {
    for (std::int64_t pos = 0; pos < ctx; ++pos) {
      auto slot = pool.append_token(id);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t h = 0; h < kHeads; ++h) {
        for (std::int64_t e = 0; e < kHeadSize; ++e) {
          slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
          slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
        }
      }
    }
  };

  ingest(0, a);
  const float a_first = pool.float_pages(0).k_blocks[0][0];
  pool.release(0);

  ingest(1, b);  // reuses the same physical blocks (free list recycles)
  const auto [kf, vf] = pool.float_pages(1);
  ASSERT_EQ(kf.size(), 2u);
  // Every sidecar element equals the exact conversion of B's half data.
  const auto kh = pool.k_blocks(1);
  const auto vh = pool.v_blocks(1);
  const std::int64_t elems = kBlockTokens * kHeads * kHeadSize;
  for (std::size_t p = 0; p < kf.size(); ++p) {
    for (std::int64_t i = 0; i < elems; ++i) {
      ASSERT_EQ(kf[p][i], float(kh[p][i])) << "K page " << p << " elem " << i;
      ASSERT_EQ(vf[p][i], float(vh[p][i])) << "V page " << p << " elem " << i;
    }
  }
  // A's and B's first keys differ, so a stale panel would be visible here.
  ASSERT_EQ(kf[0][0], float(b.k.at(0, 0, 0)));
  ASSERT_NE(float(a.k.at(0, 0, 0)), float(b.k.at(0, 0, 0)));
  (void)a_first;
}

TEST(DecodeSession, BatchedPagedDecodeMatchesPerSequenceCalls) {
  // Two sessions decoded in one batch must equal two independent calls —
  // per-(sequence, head) instances share nothing.
  Fixture a(51, masks::PatternKind::kCausal);
  Fixture b(53, masks::PatternKind::kSlidingWindow);
  serve::KvPool pool(
      serve::KvPoolConfig{16, kBlockTokens, kHeads, kHeadSize});
  const std::int64_t ctx_a = 40, ctx_b = 17;
  const auto ingest = [&](serve::SessionId id, const Fixture& f,
                          std::int64_t ctx) {
    for (std::int64_t pos = 0; pos < ctx; ++pos) {
      auto slot = pool.append_token(id);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t h = 0; h < kHeads; ++h) {
        for (std::int64_t e = 0; e < kHeadSize; ++e) {
          slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
          slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
        }
      }
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
  const PagedSeq seqs[2] = {{ctx_a, kBlockTokens, pool.k_blocks(0),
                             pool.v_blocks(0), cols_a, pool.float_pages(0)},
                            {ctx_b, kBlockTokens, pool.k_blocks(1),
                             pool.v_blocks(1), cols_b, pool.float_pages(1)}};

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
  const half* none[1] = {nullptr};
  const float* none_f[1] = {nullptr};
  PagedSeq s{16, 16, {none, 1}, {none, 1}, {}, {{none_f, 1}, {none_f, 1}}};
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

  // The packed kernels read K/V only from float pages: a view without
  // them is refused by packed decode and packed prefill alike, while the
  // scalar reference runs on the half pages.
  serve::KvPool pool(serve::KvPoolConfig{4, kBlockTokens, kHeads, kHeadSize});
  for (std::int64_t pos = 0; pos < kBlockTokens; ++pos) {
    ASSERT_TRUE(pool.append_token(0).has_value());  // zero K/V rows
  }
  const std::int32_t cols[] = {0, 5, 15};
  const PagedSeq halfs_only{kBlockTokens, kBlockTokens, pool.k_blocks(0),
                            pool.v_blocks(0), cols};
  const TensorH q_step(Shape{kHeads, 1, kHeadSize});
  const BlockwiseParams params{16, 16};
  const auto prefix = sparse::BsrMask::build(
      masks::causal(kBlockTokens), params.block_m, params.block_n);
  const std::vector<half> q_rows(
      static_cast<std::size_t>(kBlockTokens * kHeads * kHeadSize));
  std::vector<half> out(q_rows.size());
  const auto decode = [&] {
    (void)decode_attention_paged(kHeads, kHeadSize, {&halfs_only, 1}, q_step);
  };
  const auto prefill = [&] {
    blockwise_attention_paged(kHeads, kHeadSize, halfs_only, prefix, params,
                              q_rows, 0, out, 0);
  };
  EXPECT_THROW(decode(), Error);
  EXPECT_THROW(prefill(), Error);
  ScopedPackedExecution scalar(false);
  EXPECT_NO_THROW(decode());
  EXPECT_NO_THROW(prefill());
}

// ---- Paged prefill: the block-wise kernel over KV-pool pages ---------------

/// Every prefill window [begin, len) of a context whose K/V sit in a KV
/// pool must equal the padded-tensor block-wise pass over the same prefix
/// BSR, byte for byte, whichever K/V source the kernel reads: the half
/// pages (scalar reference) or the pool's float sidecar (packed, on every
/// ISA).
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
    std::memcpy(slot->k, &k_rows[static_cast<std::size_t>(pos * row)],
                row * sizeof(half));
    std::memcpy(slot->v, &v_rows[static_cast<std::size_t>(pos * row)],
                row * sizeof(half));
  }

  for (const std::int64_t begin : {std::int64_t{0}, std::int64_t{19},
                                   std::int64_t{32}, len - 1}) {
    const std::int64_t q_lo = begin / params.block_m * params.block_m;
    const std::int64_t qb_hi = (len + params.block_m - 1) / params.block_m;
    TensorH want;
    {
      ScopedPackedExecution scalar(false);
      want = blockwise_attention(dims, q, k, v, prefix, params, nullptr,
                                 q_lo / params.block_m, qb_hi);
    }
    const auto want_rows = token_rows(want, begin);
    const auto q_rows = token_rows(q, q_lo);
    const auto run = [&](bool packed) {
      ScopedPackedExecution mode(packed);
      const PagedSeq kv{len, kBlockTokens, pool.k_blocks(0), pool.v_blocks(0),
                        {}, packed ? pool.float_pages(0) : KvFloatPages{}};
      std::vector<half> out(want_rows.size());
      blockwise_attention_paged(kHeads, kHeadSize, kv, prefix, params, q_rows,
                                q_lo, out, begin);
      return std::memcmp(out.data(), want_rows.data(),
                         out.size() * sizeof(half)) == 0;
    };
    EXPECT_TRUE(run(false)) << "scalar begin=" << begin;
    for (const core::Isa isa : core::available_isas()) {
      core::ScopedKernelIsa pin(isa);
      EXPECT_TRUE(run(true))
          << core::isa_name(isa) << " sidecar begin=" << begin;
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

// ---- Sidecar watermarks ---------------------------------------------------

TEST(KvPool, DecodeConversionWorkIsConstantPerStep) {
  // Drive an N-step single-session decode through a KV pool's sidecar.
  // Every step appends one token, so the pool must convert exactly
  // heads*head_size elements per side per step — O(1) rows, independent of
  // the context length — and the outputs must match the scalar reference
  // over the half pages bit for bit.
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
      slot->k[i] = half(rng.next_double() - 0.5);
      slot->v[i] = half(rng.next_double() - 0.5);
    }
    q.fill_random(rng);

    std::vector<std::int32_t> cols;  // dense causal context
    for (std::int64_t j = 0; j <= pos; ++j) {
      cols.push_back(static_cast<std::int32_t>(j));
    }
    const PagedSeq seq{pos + 1, kStepBlockTokens, pool.k_blocks(0),
                       pool.v_blocks(0), cols, pool.float_pages(0)};
    const PagedSeq plain{pos + 1, kStepBlockTokens, pool.k_blocks(0),
                         pool.v_blocks(0), cols};

    const TensorH with =
        decode_attention_paged(kStepHeads, kStepHeadSize, {&seq, 1}, q);
    TensorH without;
    {
      ScopedPackedExecution scalar(false);
      without =
          decode_attention_paged(kStepHeads, kStepHeadSize, {&plain, 1}, q);
    }
    ASSERT_EQ(std::memcmp(with.data().data(), without.data().data(),
                          with.size_bytes()),
              0)
        << "sidecar diverged at step " << pos;

    // Per-step conversion: exactly one new token's rows per side.
    const std::int64_t bytes = telemetry::global_registry().counter(
        "serve.kv.sidecar_bytes_converted");
    EXPECT_EQ(bytes - prev_bytes, 2 * per_side_elems * 2)
        << "step " << pos << " converted more than the appended token";
    prev_bytes = bytes;
  }
  // Linear total: N steps, one token per step, 2 half-bytes per element.
  EXPECT_EQ(prev_bytes, kSteps * 2 * per_side_elems * 2);
}

TEST(KvPool, RewrittenRowsNeverServeStaleSidecar) {
  // A private tail page is converted, truncated mid-page (a speculative
  // rollback), and refilled with different rows.  Every sidecar row must
  // then equal the exact conversion of the halfs now in the page — the
  // rewritten rows included — and only rewritten or new rows convert
  // again.
  const serve::KvPoolConfig cfg{4, kBlockTokens, kHeads, kHeadSize};
  const std::int64_t row = kHeads * kHeadSize;
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  serve::KvPool pool(cfg);
  Rng rng(89);
  const auto append = [&](std::int64_t n, float lo, float hi) {
    for (std::int64_t t = 0; t < n; ++t) {
      auto slot = pool.append_token(0);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t e = 0; e < row; ++e) {
        slot->k[e] = half(rng.uniform(lo, hi));
        slot->v[e] = half(rng.uniform(lo, hi));
      }
    }
  };
  // Page 0 full, page 1 holding 6 rows; everything converted.
  append(kBlockTokens + 6, -1.0f, 0.0f);
  (void)pool.float_pages(0);
  pool.truncate(0, kBlockTokens + 2);
  append(5, 0.5f, 2.0f);  // rows 2..6 of page 1, other signs and scales
  const std::int64_t before = telemetry::global_registry().counter(
      "serve.kv.sidecar_bytes_converted");
  const KvFloatPages view = pool.float_pages(0);
  // 5 rewritten rows per side, counted as 2 source bytes per element.
  EXPECT_EQ(telemetry::global_registry().counter(
                "serve.kv.sidecar_bytes_converted") -
                before,
            5 * row * 2 * 2);

  const auto halfs = {pool.k_blocks(0), pool.v_blocks(0)};
  for (std::int64_t t = 0; t < pool.tokens(0); ++t) {
    const auto page = static_cast<std::size_t>(t / kBlockTokens);
    const std::int64_t r = t % kBlockTokens;
    int side = 0;
    for (const auto& pages : halfs) {
      const half* src = pages[page] + r * row;
      const float* got =
          (side == 0 ? view.k_blocks : view.v_blocks)[page] + r * row;
      for (std::int64_t e = 0; e < row; ++e) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[e]),
                  std::bit_cast<std::uint32_t>(float(src[e])))
            << "side " << side << " token " << t << " elem " << e;
      }
      ++side;
    }
  }
}

TEST(DecodeSession, BatchedCostScalesWithContextAndBatch) {
  const auto dev = gpusim::a100();
  const std::int64_t one_ctx[] = {128};
  const std::int64_t many_ctx[] = {128, 128, 128, 128, 128, 128, 128, 128};
  const std::int64_t one_row_each[] = {1, 1, 1, 1, 1, 1, 1, 1};
  const auto c1 = decode_verify_cost(4, 64, one_ctx, {one_row_each, 1}, dev);
  const auto c8 = decode_verify_cost(4, 64, many_ctx, one_row_each, dev);
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
