// Prefix-sharing KV-cache tests: radix-tree publish/match/adopt round
// trips, copy-on-write immutability of shared pages, refcount-aware
// release and LRU reclaim of tree-only pages, speculative rollback via
// truncate, and the pool's conservation audit after every mutation.
#include <gtest/gtest.h>

#include <vector>

#include "stof/serve/kv_pool.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {
namespace {

// 8 blocks of 4 tokens, 1 head x 2 dims: a page is 8 floats per side.
KvPoolConfig tiny_config() { return KvPoolConfig{8, 4, 1, 2}; }

Request template_request(SessionId id, std::uint64_t session_seed) {
  Request r;
  r.id = id;
  r.prompt_len = 12;
  r.max_new_tokens = 2;
  r.seed = session_seed;
  r.template_seed = 777;
  r.template_len = 10;  // 2 full pages + 2 rows of page 2
  return r;
}

/// Append `n` tokens for `id`, writing a recognisable per-row byte pattern.
void append_rows(KvPool& pool, SessionId id, std::int64_t n,
                 float value_base) {
  for (std::int64_t t = 0; t < n; ++t) {
    auto slot = pool.append_token(id);
    ASSERT_TRUE(slot.has_value());
    const std::int64_t row = pool.config().heads * pool.config().head_size;
    for (std::int64_t e = 0; e < row; ++e) {
      slot->k[e] = value_base + static_cast<float>(t);
      slot->v[e] = -value_base - static_cast<float>(t);
    }
  }
}

TEST(PrefixIndex, PageKeyIsPureFunctionOfTemplate) {
  const Request a = template_request(0, 1111);
  const Request b = template_request(1, 2222);  // same template, other seed
  EXPECT_EQ(PrefixIndex::page_key(a, 0, 8), PrefixIndex::page_key(b, 0, 8));
  // Keys separate by position range and by template identity.
  EXPECT_NE(PrefixIndex::page_key(a, 0, 8), PrefixIndex::page_key(a, 0, 4));
  EXPECT_NE(PrefixIndex::page_key(a, 0, 4), PrefixIndex::page_key(a, 4, 8));
  Request c = a;
  c.template_seed = 778;
  EXPECT_NE(PrefixIndex::page_key(a, 0, 8), PrefixIndex::page_key(c, 0, 8));
  // Beyond template_len the session seed takes over: different sessions
  // diverge exactly there.
  EXPECT_NE(PrefixIndex::page_key(a, 8, 12), PrefixIndex::page_key(b, 8, 12));
}

TEST(PrefixIndex, PublishMatchAdoptRoundTrip) {
  telemetry::ScopedTelemetry scoped(true);
  telemetry::global_registry().reset();
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  ASSERT_TRUE(pool.check_conservation());

  // Nothing resident yet: match is empty, adopt is a no-op.
  const Request r2 = template_request(1, 2222);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 0);

  pool.publish_prefix(0, donor);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), 3);  // pages 0,1 full + frozen partial
  // Tree refs alone never consume pool capacity.
  EXPECT_EQ(pool.used_blocks(), 3);

  // Match sees the full chain, capped on request.
  const PrefixMatch m = pool.match_prefix(r2, r2.template_len);
  EXPECT_EQ(m.tokens, 10);
  EXPECT_EQ(m.full_pages, 2);
  EXPECT_TRUE(m.partial);
  EXPECT_EQ(m.pages(), 3);
  const PrefixMatch capped = pool.match_prefix(r2, 4);
  EXPECT_EQ(capped.tokens, 4);
  EXPECT_EQ(capped.full_pages, 1);
  EXPECT_FALSE(capped.partial);

  // A different mask kind never matches: prompt outputs depend on the
  // attention pattern, so chains are per-kind.
  Request other_kind = r2;
  other_kind.mask_kind = masks::PatternKind::kSlidingWindow;
  EXPECT_EQ(pool.match_prefix(other_kind, 10).tokens, 0);

  // Adoption maps the shared pages at refcount+1 — same physical blocks.
  const PrefixMatch adopted = pool.adopt_prefix(1, r2, r2.template_len);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(adopted.tokens, 10);
  EXPECT_EQ(pool.tokens(1), 10);
  EXPECT_EQ(pool.blocks(1), 3);
  EXPECT_EQ(pool.used_blocks(), 3);  // no new allocation
  EXPECT_EQ(pool.k_blocks(1)[0], pool.k_blocks(0)[0]);
  EXPECT_EQ(pool.v_blocks(1)[2], pool.v_blocks(0)[2]);
  // Every adopted page is shared, and the partial tail is not usable
  // as-is: the first append must CoW it.
  EXPECT_EQ(pool.private_blocks(1), 0);
  EXPECT_EQ(pool.usable_blocks(1), 2);
  EXPECT_EQ(pool.append_reserve_blocks(1, 3), 2);
  EXPECT_EQ(telemetry::global_registry().counter("serve.prefix.hits"), 1);
  EXPECT_EQ(
      telemetry::global_registry().counter("serve.prefix.shared_pages"), 3);
  EXPECT_EQ(
      telemetry::global_registry().counter("serve.prefix.published_pages"),
      3);
}

TEST(PrefixIndex, CopyOnWriteKeepsSharedPagesImmutable) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor);
  const Request r2 = template_request(1, 2222);
  ASSERT_EQ(pool.adopt_prefix(1, r2, r2.template_len).tokens, 10);

  // The adopter's first append lands mid-page on the shared partial tail:
  // it must copy rows [0, 2) into a private block first.
  const float* donor_tail_k = pool.k_blocks(0)[2];
  auto slot = pool.append_token(1);
  ASSERT_TRUE(slot.has_value());
  ASSERT_TRUE(pool.check_conservation());
  const float* adopter_tail_k = pool.k_blocks(1)[2];
  EXPECT_NE(adopter_tail_k, donor_tail_k);     // remapped to a fresh block
  EXPECT_EQ(pool.k_blocks(1)[0], pool.k_blocks(0)[0]);  // full pages shared
  EXPECT_EQ(pool.used_blocks(), 4);
  // The template rows were carried over; the donor's private rows in the
  // same physical page were not touched and not inherited.
  const std::int64_t row = pool.config().heads * pool.config().head_size;
  for (std::int64_t e = 0; e < 2 * row; ++e) {
    EXPECT_EQ(adopter_tail_k[e], donor_tail_k[e]);
  }
  slot->k[0] = 99.0f;
  EXPECT_EQ(donor_tail_k[2 * row], 20.0f);  // donor token 10 intact
  EXPECT_EQ(pool.private_blocks(1), 1);
  EXPECT_EQ(pool.tokens(1), 11);
}

TEST(PrefixIndex, RefcountedReleaseAndLruReclaim) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor);
  const Request r2 = template_request(1, 2222);
  ASSERT_EQ(pool.adopt_prefix(1, r2, r2.template_len).tokens, 10);

  // Donor exit drops its references but frees nothing: every donor page is
  // still held by the tree (and by the adopter).
  pool.release(0);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 0);
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.reclaimable_blocks(), 0);  // adopter still maps them

  // Adopter exit leaves the pages tree-only: reclaimable headroom, not
  // free-list blocks.
  pool.release(1);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 5);
  EXPECT_EQ(pool.reclaimable_blocks(), 3);
  EXPECT_EQ(pool.allocatable_blocks(), 8);

  // Allocation pressure reclaims the LRU subtree instead of failing: a
  // session needing 6 blocks finds only 5 free and evicts the chain.
  append_rows(pool, 2, 24, 30.0f);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.blocks(2), 6);
  EXPECT_EQ(pool.prefix_blocks(), 0);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 0);
  // And exhaustion still fails cleanly once nothing is reclaimable.
  append_rows(pool, 2, 8, 40.0f);  // fills the remaining 2 blocks
  EXPECT_FALSE(pool.append_token(3).has_value());
  ASSERT_TRUE(pool.check_conservation());
}

TEST(PrefixIndex, TruncateRollsBackSpeculativeRows) {
  KvPool pool(tiny_config());
  append_rows(pool, 0, 10, 10.0f);  // 3 blocks, tail holds 2 rows
  ASSERT_TRUE(pool.check_conservation());

  // Drop the speculative tail rows: trailing block freed, surviving tail
  // keeps its earlier bytes.
  pool.truncate(0, 5);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 5);
  EXPECT_EQ(pool.blocks(0), 2);
  EXPECT_EQ(pool.free_blocks(), 6);
  const std::int64_t row = pool.config().heads * pool.config().head_size;
  EXPECT_EQ(pool.k_blocks(0)[1][0], 14.0f);  // token 4 survives

  // Re-append after rollback reuses the tail slot exactly.
  auto slot = pool.append_token(0);
  ASSERT_TRUE(slot.has_value());
  slot->k[0] = 55.0f;
  EXPECT_EQ(pool.tokens(0), 6);
  EXPECT_EQ(pool.k_blocks(0)[1][row], 55.0f);

  // Truncate to a block boundary, then to empty.
  pool.truncate(0, 4);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.blocks(0), 1);
  pool.truncate(0, 0);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 0);
  EXPECT_EQ(pool.free_blocks(), 8);
}

TEST(PrefixIndex, TruncateOntoSharedTailForcesCow) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor);

  // The donor itself rolls back to inside its published partial page (the
  // speculative-decode shape: verify rejected rows 10 and 11).  The page is
  // shared with the tree, so the rollback must not bump its generation —
  // instead the donor's next append copies out.
  pool.truncate(0, 10);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 10);
  EXPECT_EQ(pool.usable_blocks(0), 2);  // tail append will CoW
  const float* shared_tail = pool.k_blocks(0)[2];
  auto slot = pool.append_token(0);
  ASSERT_TRUE(slot.has_value());
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_NE(pool.k_blocks(0)[2], shared_tail);
  // The tree still serves the frozen page to new adopters.
  const Request r2 = template_request(1, 2222);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 10);
}

TEST(PrefixIndex, PublishNeedsTheWholeTemplateResident) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, 6, 10.0f);  // template_len is 10
  pool.publish_prefix(0, donor);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), 0);
  const Request r2 = template_request(1, 2222);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 0);

  append_rows(pool, 0, donor.prompt_len - 6, 16.0f);
  pool.publish_prefix(0, donor);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), 3);
  const PrefixMatch m = pool.match_prefix(r2, r2.template_len);
  EXPECT_EQ(m.tokens, 10);
  EXPECT_EQ(m.full_pages, 2);
  EXPECT_TRUE(m.partial);
}

TEST(PrefixIndex, FrozenPartialLeafGetsAFullerSibling) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor);  // pages [0,4) [4,8) + partial [8,10)
  ASSERT_EQ(pool.prefix_blocks(), 3);

  // Same template, but 12 positions long: page 2 is full for it.  The
  // frozen 2-row leaf is never extended; the full page is published next
  // to it, and each request matches its own chain.
  Request longer = template_request(1, 2222);
  longer.template_len = 12;
  longer.prompt_len = 14;
  append_rows(pool, 1, longer.prompt_len, 20.0f);
  pool.publish_prefix(1, longer);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), 4);
  const PrefixMatch full = pool.match_prefix(longer, longer.template_len);
  EXPECT_EQ(full.tokens, 12);
  EXPECT_EQ(full.full_pages, 3);
  EXPECT_FALSE(full.partial);
  const Request shorter = template_request(2, 3333);
  const PrefixMatch part = pool.match_prefix(shorter, shorter.template_len);
  EXPECT_EQ(part.tokens, 10);
  EXPECT_EQ(part.full_pages, 2);
  EXPECT_TRUE(part.partial);

  // Publishing the short template again adds nothing: its partial page
  // gains nothing over the frozen leaf.
  pool.release(0);
  pool.release(1);
  append_rows(pool, 3, donor.prompt_len, 30.0f);
  pool.publish_prefix(3, template_request(3, 4444));
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), 4);
}

TEST(PrefixIndex, RepublishIsIdempotent) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor);
  const std::int64_t before = pool.prefix_blocks();

  // A second session with the same template prefills from scratch (it
  // arrived before the first published, say) and publishes the same chain:
  // the resident pages win, no duplicate nodes appear.
  Request twin = template_request(1, 2222);
  append_rows(pool, 1, twin.prompt_len, 20.0f);
  pool.publish_prefix(1, twin);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), before);
  EXPECT_EQ(static_cast<std::int64_t>(pool.prefix_index().size()), before);
}

}  // namespace
}  // namespace stof::serve
