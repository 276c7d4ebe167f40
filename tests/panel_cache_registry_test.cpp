// Unit tests of the cross-call float-panel cache: hit/miss/extension
// semantics, version-tag invalidation, LRU capacity bounding with pinned
// handles, the tensor storage-identity/mutation-stamp plumbing it keys on,
// and the decode-side asymptotic contract (per-step conversion work is
// O(newly appended rows), counter-asserted, with bit-identical outputs).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "stof/core/packed.hpp"
#include "stof/core/panel_cache_registry.hpp"
#include "stof/core/rng.hpp"
#include "stof/core/tensor.hpp"
#include "stof/mha/decode.hpp"
#include "stof/serve/kv_pool.hpp"

namespace stof::core {
namespace {

/// Converter writing a recognisable pattern: dst[i] = base + i.
PanelCacheRegistry::Converter pattern(float base) {
  return [base](std::int64_t lo, std::int64_t hi, float* dst) {
    for (std::int64_t i = lo; i < hi; ++i) {
      dst[i] = base + static_cast<float>(i);
    }
  };
}

TEST(PanelCacheRegistry, MissThenHitConvertsOnce) {
  PanelCacheRegistry reg;
  const PanelKey key{next_storage_id(), kPanelRowMajor};
  const PanelRef first = reg.get_or_convert(key, 0, 8, 8, pattern(100));
  EXPECT_EQ(first.converted_elems, 8);
  EXPECT_EQ(first.data()[3], 103.0f);

  const PanelRef again = reg.get_or_convert(key, 0, 8, 8, pattern(999));
  EXPECT_EQ(again.converted_elems, 0);  // pure hit, converter not invoked
  EXPECT_EQ(again.data()[3], 103.0f);
  EXPECT_EQ(again.buffer.get(), first.buffer.get());

  const auto s = reg.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.bytes_converted, 8 * 2);  // source half bytes
}

TEST(PanelCacheRegistry, IncrementalExtensionConvertsOnlySuffix) {
  PanelCacheRegistry reg;
  const PanelKey key{next_storage_id(), kPanelRowMajor};
  (void)reg.get_or_convert(key, 0, 16, 4, pattern(0));
  EXPECT_EQ(reg.stats().bytes_converted, 4 * 2);

  // Same version, longer valid prefix: only [4, 10) converts.
  const PanelRef ext = reg.get_or_convert(key, 0, 16, 10, pattern(0));
  EXPECT_EQ(ext.converted_elems, 6);
  EXPECT_EQ(reg.stats().bytes_converted, 10 * 2);
  EXPECT_EQ(ext.data()[9], 9.0f);

  // Asking for a shorter prefix is a pure hit.
  const PanelRef shorter = reg.get_or_convert(key, 0, 16, 2, pattern(50));
  EXPECT_EQ(shorter.converted_elems, 0);
  EXPECT_EQ(reg.stats().hits, 2);
}

TEST(PanelCacheRegistry, StaleVersionReconvertsInFull) {
  PanelCacheRegistry reg;
  const PanelKey key{next_storage_id(), kPanelRowMajor};
  (void)reg.get_or_convert(key, 0, 8, 8, pattern(0));
  const PanelRef fresh = reg.get_or_convert(key, 1, 8, 8, pattern(500));
  EXPECT_EQ(fresh.converted_elems, 8);
  EXPECT_EQ(fresh.data()[0], 500.0f);
  const auto s = reg.stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.misses, 2);
}

TEST(PanelCacheRegistry, ExplicitInvalidateDropsEntry) {
  PanelCacheRegistry reg;
  const PanelKey key{next_storage_id(), kPanelRowMajor};
  (void)reg.get_or_convert(key, 0, 8, 8, pattern(0));
  EXPECT_TRUE(reg.invalidate(key));
  EXPECT_FALSE(reg.invalidate(key));  // already gone
  EXPECT_EQ(reg.entry_count(), 0u);
  EXPECT_EQ(reg.stats().invalidations, 1);

  const PanelRef re = reg.get_or_convert(key, 0, 8, 8, pattern(7));
  EXPECT_EQ(re.converted_elems, 8);
}

TEST(PanelCacheRegistry, DropStorageRemovesAllVariantsUncounted) {
  PanelCacheRegistry reg;
  const std::uint64_t storage = next_storage_id();
  (void)reg.get_or_convert({storage, kPanelRowMajor}, 0, 8, 8, pattern(0));
  (void)reg.get_or_convert({storage, kPanelTransposed}, 0, 8, 8, pattern(0));
  EXPECT_EQ(reg.drop_storage(storage), 2u);
  EXPECT_EQ(reg.entry_count(), 0u);
  EXPECT_EQ(reg.resident_bytes(), 0u);
  EXPECT_EQ(reg.stats().invalidations, 0);  // lifecycle, not staleness
}

TEST(PanelCacheRegistry, LruEvictionKeepsPinnedHandlesValid) {
  PanelCacheRegistry reg(/*capacity_bytes=*/3 * 8 * sizeof(float));
  const PanelKey a{next_storage_id(), 0}, b{next_storage_id(), 0},
      c{next_storage_id(), 0}, d{next_storage_id(), 0};
  const PanelRef ra = reg.get_or_convert(a, 0, 8, 8, pattern(10));
  (void)reg.get_or_convert(b, 0, 8, 8, pattern(20));
  (void)reg.get_or_convert(c, 0, 8, 8, pattern(30));
  EXPECT_EQ(reg.entry_count(), 3u);

  // Fourth entry pushes the cache over capacity; `a` is the LRU victim.
  (void)reg.get_or_convert(d, 0, 8, 8, pattern(40));
  EXPECT_EQ(reg.entry_count(), 3u);
  EXPECT_EQ(reg.stats().evictions, 1);

  // The pinned handle outlives the eviction — pointer and contents intact.
  EXPECT_EQ(ra.data()[0], 10.0f);

  // `a` reconverts on next request (a miss, not a hit).
  const PanelRef ra2 = reg.get_or_convert(a, 0, 8, 8, pattern(11));
  EXPECT_EQ(ra2.converted_elems, 8);
  EXPECT_NE(ra2.buffer.get(), ra.buffer.get());
}

TEST(PanelCacheRegistry, ClearAndResetStats) {
  PanelCacheRegistry reg;
  (void)reg.get_or_convert({next_storage_id(), 0}, 0, 8, 8, pattern(0));
  reg.clear();
  EXPECT_EQ(reg.entry_count(), 0u);
  EXPECT_EQ(reg.resident_bytes(), 0u);
  reg.reset_stats();
  EXPECT_EQ(reg.stats().misses, 0);
}

// ---- Tensor storage identity / mutation stamps -----------------------------

TEST(TensorStamp, AllocationGetsUniqueStorageId) {
  TensorH a(Shape{4, 4}), b(Shape{4, 4});
  EXPECT_NE(a.storage_id(), 0u);
  EXPECT_NE(b.storage_id(), 0u);
  EXPECT_NE(a.storage_id(), b.storage_id());
  EXPECT_EQ(TensorH{}.storage_id(), 0u);  // empty tensor has no storage
}

TEST(TensorStamp, MutableAccessorsBumpVersion) {
  TensorH t(Shape{4, 4});
  const std::uint64_t v0 = t.version();
  t.at(1, 2) = half(1.0f);
  EXPECT_GT(t.version(), v0);
  const std::uint64_t v1 = t.version();
  (void)t.data();  // mutable span counts as a write
  EXPECT_GT(t.version(), v1);
  const std::uint64_t v2 = t.version();
  Rng rng(7);
  t.fill_random(rng);
  EXPECT_GT(t.version(), v2);

  // Const access never stamps.
  const TensorH& ct = t;
  const std::uint64_t v3 = t.version();
  (void)ct.at(0, 0);
  (void)ct.data();
  EXPECT_EQ(t.version(), v3);
}

TEST(TensorStamp, CopyGetsFreshIdentityMoveKeepsIt) {
  TensorH t(Shape{2, 2});
  t.at(0, 0) = half(3.0f);
  const std::uint64_t id = t.storage_id();

  TensorH copy = t;
  EXPECT_NE(copy.storage_id(), id);
  EXPECT_NE(copy.storage_id(), 0u);
  EXPECT_EQ(copy.version(), 0u);  // fresh storage, fresh stamp

  TensorH moved = std::move(t);
  EXPECT_EQ(moved.storage_id(), id);   // same buffer, same identity
  EXPECT_EQ(t.storage_id(), 0u);       // NOLINT: moved-from is storage-less
}

// ---- Decode asymptotics (counter-asserted) ---------------------------------

TEST(PanelCacheRegistry, DecodeConversionWorkIsConstantPerStep) {
  // Drive an N-step single-session decode through a KV pool with the
  // sidecar enabled.  After the first step, every step appends one token,
  // so the registry must convert exactly heads*head_size elements per side
  // per step — O(1) pages, independent of the context length — and the
  // outputs must match a sidecar-less decode bit for bit.
  constexpr std::int64_t kHeads = 2, kHeadSize = 16, kSteps = 40,
                         kBlockTokens = 8;
  PanelCacheRegistry reg;
  serve::KvPool pool(
      serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize}, &reg);
  serve::KvPool plain_pool(
      serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  Rng rng(71);
  TensorH q(Shape{kHeads, 1, kHeadSize});

  const std::int64_t per_side_elems = kHeads * kHeadSize;
  std::int64_t prev_bytes = 0;
  for (std::int64_t pos = 0; pos < kSteps; ++pos) {
    auto slot = pool.append_token(0);
    auto plain_slot = plain_pool.append_token(0);
    ASSERT_TRUE(slot.has_value() && plain_slot.has_value());
    for (std::int64_t i = 0; i < per_side_elems; ++i) {
      const half kv = half(rng.next_double() - 0.5);
      const half vv = half(rng.next_double() - 0.5);
      slot->k[i] = plain_slot->k[i] = kv;
      slot->v[i] = plain_slot->v[i] = vv;
    }
    q.fill_random(rng);

    std::vector<std::int32_t> cols;  // dense causal context
    for (std::int64_t j = 0; j <= pos; ++j) {
      cols.push_back(static_cast<std::int32_t>(j));
    }
    const mha::PagedSeq seq{pos + 1, kBlockTokens, pool.k_blocks(0),
                            pool.v_blocks(0), cols,
                            pool.sidecar(0, PanelPrecision::kFloat32)};
    const mha::PagedSeq plain{pos + 1, kBlockTokens, plain_pool.k_blocks(0),
                              plain_pool.v_blocks(0), cols};

    const TensorH with = mha::decode_attention_paged(kHeads, kHeadSize,
                                                     {&seq, 1}, q);
    const TensorH without = mha::decode_attention_paged(kHeads, kHeadSize,
                                                        {&plain, 1}, q);
    ASSERT_EQ(std::memcmp(with.data().data(), without.data().data(),
                          with.size_bytes()),
              0)
        << "sidecar diverged at step " << pos;

    // Per-step conversion: exactly one new token's rows per side.
    const std::int64_t bytes = reg.stats().bytes_converted;
    EXPECT_EQ(bytes - prev_bytes, 2 * per_side_elems * 2)
        << "step " << pos << " converted more than the appended token";
    prev_bytes = bytes;
  }
  // Linear total: N steps, one token per step, 2 half-bytes per element.
  EXPECT_EQ(prev_bytes, kSteps * 2 * per_side_elems * 2);
}

}  // namespace
}  // namespace stof::core
