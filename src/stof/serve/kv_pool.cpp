#include "stof/serve/kv_pool.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "stof/core/checksum.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {

// ---- PrefixIndex ------------------------------------------------------

std::uint64_t PrefixIndex::page_key(const Request& r, std::int64_t begin,
                                    std::int64_t end) {
  // Chain over (seed, position) pairs: the pure inputs of fill_token, so
  // equal keys <=> byte-identical KV rows for the covered positions.
  std::uint64_t h = kFnv1aOffset;
  for (std::int64_t p = begin; p < end; ++p) {
    const std::uint64_t seed = token_seed(r, p);
    h = fnv1a64(&seed, sizeof(seed), h);
    const auto pos = static_cast<std::uint64_t>(p);
    h = fnv1a64(&pos, sizeof(pos), h);
  }
  return h;
}

std::vector<std::int32_t> PrefixIndex::walk(const Request& r,
                                            std::int64_t cap_tokens) const {
  std::vector<std::int32_t> chain;
  if (r.template_len <= 0) return chain;
  const std::int64_t cap = std::min(cap_tokens, r.template_len);
  const auto rit = roots_.find(static_cast<int>(r.mask_kind));
  const std::vector<std::int32_t>* level =
      rit == roots_.end() ? nullptr : &rit->second;
  std::int64_t tokens = 0;
  while (level != nullptr) {
    // Prefer the longest matching child (a full page beats a frozen
    // partial sibling); ties resolve to insertion order — deterministic.
    std::int32_t best = -1;
    std::int64_t best_valid = -1;
    for (const auto cid : *level) {
      const Node& n = nodes_[static_cast<std::size_t>(cid)];
      if (tokens + n.valid_tokens > cap) continue;
      if (n.valid_tokens <= best_valid) continue;
      if (n.page_key != page_key(r, tokens, tokens + n.valid_tokens)) continue;
      best = cid;
      best_valid = n.valid_tokens;
    }
    if (best < 0) break;
    chain.push_back(best);
    tokens += best_valid;
    // Partial nodes are leaves by construction (empty children), so the
    // loop terminates there without needing to know block_tokens.
    level = &nodes_[static_cast<std::size_t>(best)].children;
  }
  return chain;
}

std::int32_t PrefixIndex::insert(std::int32_t parent, int mask_kind,
                                 Node node) {
  node.parent = parent;
  node.mask_kind = mask_kind;
  node.children.clear();
  std::int32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    nodes_[static_cast<std::size_t>(id)] = std::move(node);
  } else {
    id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(std::move(node));
  }
  if (parent < 0) {
    roots_[mask_kind].push_back(id);
  } else {
    nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
  }
  ++live_nodes_;
  return id;
}

template <typename Fn>
void PrefixIndex::remove_subtree(std::int32_t id, Fn&& on_drop) {
  Node& root = nodes_[static_cast<std::size_t>(id)];
  auto& siblings = root.parent < 0
                       ? roots_[root.mask_kind]
                       : nodes_[static_cast<std::size_t>(root.parent)].children;
  siblings.erase(std::find(siblings.begin(), siblings.end(), id));
  std::vector<std::int32_t> stack{id};
  while (!stack.empty()) {
    const std::int32_t cur = stack.back();
    stack.pop_back();
    Node& n = nodes_[static_cast<std::size_t>(cur)];
    for (const auto c : n.children) stack.push_back(c);
    on_drop(n.block);
    n = Node{};  // block = -1 marks the slot free
    free_slots_.push_back(cur);
    --live_nodes_;
  }
}

void PrefixIndex::touch_chain(std::int32_t id, std::int64_t now) {
  for (std::int32_t cur = id; cur >= 0;
       cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    Node& n = nodes_[static_cast<std::size_t>(cur)];
    n.last_use = std::max(n.last_use, now);
  }
}

// ---- KvPool -----------------------------------------------------------

KvPool::KvPool(const KvPoolConfig& config) : config_(config) {
  config_.validate();
  // Uninitialised: a block's pages become resident when it is first
  // written, and every row is written before any kernel reads it.
  const auto elems = static_cast<std::size_t>(config_.num_blocks *
                                              config_.block_elems());
  k_arena_ = std::make_unique_for_overwrite<float[]>(elems);
  v_arena_ = std::make_unique_for_overwrite<float[]>(elems);
  free_.reserve(static_cast<std::size_t>(config_.num_blocks));
  // Descending, so allocation hands out block 0, 1, 2, ... in order.
  for (std::int64_t b = config_.num_blocks - 1; b >= 0; --b) {
    free_.push_back(static_cast<std::int32_t>(b));
  }
  block_refs_.assign(static_cast<std::size_t>(config_.num_blocks), 0);
}

std::int64_t KvPool::tokens(SessionId id) const {
  const auto it = by_session_.find(id);
  return it == by_session_.end() ? 0 : it->second.tokens;
}

std::int64_t KvPool::blocks(SessionId id) const {
  const auto it = by_session_.find(id);
  return it == by_session_.end()
             ? 0
             : static_cast<std::int64_t>(it->second.block_ids.size());
}

std::int64_t KvPool::reclaimable_blocks() const {
  std::int64_t n = 0;
  for (const auto& node : prefix_.nodes_) {
    if (node.block < 0) continue;  // free slot
    if (block_refs_[static_cast<std::size_t>(node.block)] == 1) ++n;
  }
  return n;
}

std::int64_t KvPool::private_blocks(SessionId id) const {
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) return 0;
  std::int64_t n = 0;
  for (const auto b : it->second.block_ids) {
    if (block_refs_[static_cast<std::size_t>(b)] == 1) ++n;
  }
  return n;
}

std::int64_t KvPool::usable_blocks(SessionId id) const {
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) return 0;
  const SessionBlocks& sb = it->second;
  auto n = static_cast<std::int64_t>(sb.block_ids.size());
  if (n > 0 && sb.tokens % config_.block_tokens != 0 &&
      block_refs_[static_cast<std::size_t>(sb.block_ids.back())] > 1) {
    --n;  // partial shared tail: the next append CoWs it into a new block
  }
  return n;
}

std::int32_t KvPool::acquire_block() {
  while (free_.empty() && reclaim_lru_prefix()) {
  }
  if (free_.empty()) return -1;
  const std::int32_t block = free_.back();
  free_.pop_back();
  auto& refs = block_refs_[static_cast<std::size_t>(block)];
  STOF_CHECK(refs == 0, "free-list block has live references");
  refs = 1;
  return block;
}

bool KvPool::reclaim_lru_prefix() {
  // Evict the least-recently-used subtree whose root block is held only by
  // the tree (no session).  Descendant blocks a session still maps merely
  // lose their tree reference; tree-only descendants are freed with the
  // root.  touch_chain keeps ancestors at least as fresh as descendants,
  // so the LRU pick is normally a leaf.
  std::int32_t victim = -1;
  std::int64_t victim_use = std::numeric_limits<std::int64_t>::max();
  for (std::int32_t id = 0;
       id < static_cast<std::int32_t>(prefix_.nodes_.size()); ++id) {
    const PrefixIndex::Node& n = prefix_.nodes_[static_cast<std::size_t>(id)];
    if (n.block < 0) continue;
    if (block_refs_[static_cast<std::size_t>(n.block)] != 1) continue;
    if (n.last_use < victim_use) {
      victim = id;
      victim_use = n.last_use;
    }
  }
  if (victim < 0) return false;
  std::int64_t dropped = 0;
  prefix_.remove_subtree(victim, [this, &dropped](std::int32_t block) {
    ++dropped;
    unref_block(block);
  });
  telemetry::count("serve.prefix.reclaimed_pages", dropped);
  return true;
}

void KvPool::unref_block(std::int32_t block) {
  auto& refs = block_refs_[static_cast<std::size_t>(block)];
  STOF_CHECK(refs > 0, "unref of a free block");
  if (--refs > 0) return;
  // Sorted-descending insertion keeps allocation order a pure function of
  // the alloc/release sequence, never of drop order within a batch.
  const auto pos =
      std::lower_bound(free_.begin(), free_.end(), block, std::greater<>());
  free_.insert(pos, block);
}

bool KvPool::cow_tail(SessionBlocks& sb) {
  const std::int32_t fresh = acquire_block();
  if (fresh < 0) return false;
  const std::int32_t old = sb.block_ids.back();
  const std::int64_t valid_rows = sb.tokens % config_.block_tokens;
  const std::int64_t valid = valid_rows * config_.heads * config_.head_size;
  std::copy_n(k_base(old), static_cast<std::size_t>(valid), k_base(fresh));
  std::copy_n(v_base(old), static_cast<std::size_t>(valid), v_base(fresh));
  unref_block(old);
  sb.block_ids.back() = fresh;
  sb.k_ptrs.back() = k_base(fresh);
  sb.v_ptrs.back() = v_base(fresh);
  peak_used_ = std::max(peak_used_, used_blocks());
  telemetry::count("serve.prefix.cow_copies", 1);
  return true;
}

std::optional<TokenSlot> KvPool::append_token(SessionId id) {
  SessionBlocks& sb = by_session_[id];
  const std::int64_t bt = config_.block_tokens;
  const std::int64_t local = sb.tokens % bt;
  if (local == 0) {  // tail block full (or no block yet)
    const std::int32_t block = acquire_block();
    if (block < 0) {
      if (sb.block_ids.empty()) by_session_.erase(id);
      return std::nullopt;
    }
    sb.block_ids.push_back(block);
    sb.k_ptrs.push_back(k_base(block));
    sb.v_ptrs.push_back(v_base(block));
    peak_used_ = std::max(peak_used_, used_blocks());
  } else if (block_refs_[static_cast<std::size_t>(sb.block_ids.back())] > 1) {
    // Shared pages are immutable: copy the valid tail rows into a private
    // block before handing out a writable slot.
    if (!cow_tail(sb)) return std::nullopt;
  }
  const std::int32_t block = sb.block_ids.back();
  const std::int64_t row = config_.heads * config_.head_size;
  ++sb.tokens;
  // The caller widens one half row per side into the slot.
  telemetry::count("serve.kv.sidecar_bytes_converted", 2 * row * 2);
  return TokenSlot{k_base(block) + local * row, v_base(block) + local * row};
}

PrefixMatch KvPool::match_prefix(const Request& r,
                                 std::int64_t cap_tokens) const {
  PrefixMatch m;
  if (r.template_len <= 0 || cap_tokens <= 0) return m;
  const auto chain = prefix_.walk(r, cap_tokens);
  for (const auto nid : chain) {
    const PrefixIndex::Node& n = prefix_.node(nid);
    m.tokens += n.valid_tokens;
    if (n.valid_tokens == config_.block_tokens) {
      ++m.full_pages;
    } else {
      m.partial = true;
    }
  }
  return m;
}

PrefixMatch KvPool::adopt_prefix(SessionId id, const Request& r,
                                 std::int64_t cap_tokens) {
  PrefixMatch m;
  if (r.template_len <= 0 || cap_tokens <= 0) return m;
  STOF_CHECK(tokens(id) == 0, "adopt_prefix requires an empty session");
  const auto chain = prefix_.walk(r, cap_tokens);
  if (chain.empty()) return m;
  SessionBlocks& sb = by_session_[id];
  for (const auto nid : chain) {
    const PrefixIndex::Node& n = prefix_.node(nid);
    ++block_refs_[static_cast<std::size_t>(n.block)];
    sb.block_ids.push_back(n.block);
    sb.k_ptrs.push_back(k_base(n.block));
    sb.v_ptrs.push_back(v_base(n.block));
    m.tokens += n.valid_tokens;
    if (n.valid_tokens == config_.block_tokens) {
      ++m.full_pages;
    } else {
      m.partial = true;
    }
  }
  sb.tokens = m.tokens;
  prefix_.touch_chain(chain.back(), prefix_clock_++);
  telemetry::count("serve.prefix.hits", 1);
  telemetry::count("serve.prefix.shared_pages", m.pages());
  // Bytes of K+V half rows (as the modelled GPU stores them) this session
  // did not have to re-prefill.
  telemetry::count("serve.prefix.bytes_saved",
                   m.tokens * config_.heads * config_.head_size * 2 * 2);
  return m;
}

void KvPool::publish_prefix(SessionId id, const Request& r) {
  if (r.template_len <= 0) return;
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) return;
  SessionBlocks& sb = it->second;
  if (sb.tokens < r.template_len) return;  // template not fully resident
  auto chain = prefix_.walk(r, r.template_len);
  std::int64_t covered = 0;
  for (const auto nid : chain) covered += prefix_.node(nid).valid_tokens;
  // A resident partial tail is a frozen leaf; publish fuller sibling pages
  // next to it instead of extending it (but only if we actually have more
  // template rows for that page than the frozen node holds).
  std::int64_t frozen_valid = 0;
  if (!chain.empty()) {
    const PrefixIndex::Node& last = prefix_.node(chain.back());
    if (last.valid_tokens < config_.block_tokens) {
      frozen_valid = last.valid_tokens;
      covered -= last.valid_tokens;
      chain.pop_back();
    }
  }
  std::int32_t parent = chain.empty() ? -1 : chain.back();
  const int mk = static_cast<int>(r.mask_kind);
  const std::int64_t bt = config_.block_tokens;
  std::int64_t published = 0;
  while (covered < r.template_len) {
    STOF_CHECK(covered % bt == 0, "publish must start page-aligned");
    const std::int64_t q = covered / bt;  // page index in sb.block_ids
    const std::int64_t end = std::min(covered + bt, r.template_len);
    if (end - covered <= frozen_valid) break;  // no gain over frozen leaf
    frozen_valid = 0;
    const std::int32_t block = sb.block_ids[static_cast<std::size_t>(q)];
    PrefixIndex::Node node;
    node.block = block;
    node.valid_tokens = end - covered;
    node.page_key = PrefixIndex::page_key(r, covered, end);
    node.last_use = prefix_clock_;
    parent = prefix_.insert(parent, mk, std::move(node));
    ++block_refs_[static_cast<std::size_t>(block)];
    covered = end;
    ++published;
  }
  if (parent >= 0) prefix_.touch_chain(parent, prefix_clock_++);
  if (published > 0) {
    telemetry::count("serve.prefix.published_pages", published);
  }
}

void KvPool::truncate(SessionId id, std::int64_t new_tokens) {
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) {
    STOF_CHECK(new_tokens == 0, "truncate of an empty session");
    return;
  }
  SessionBlocks& sb = it->second;
  STOF_CHECK(new_tokens >= 0 && new_tokens <= sb.tokens,
             "truncate cannot grow a session");
  if (new_tokens == sb.tokens) return;
  const std::int64_t keep = new_tokens == 0 ? 0 : blocks_for(new_tokens);
  while (static_cast<std::int64_t>(sb.block_ids.size()) > keep) {
    unref_block(sb.block_ids.back());
    sb.block_ids.pop_back();
    sb.k_ptrs.pop_back();
    sb.v_ptrs.pop_back();
  }
  sb.tokens = new_tokens;
  if (new_tokens == 0) by_session_.erase(it);
}

bool KvPool::check_conservation() const {
  std::vector<std::int32_t> expect(
      static_cast<std::size_t>(config_.num_blocks), 0);
  for (const auto& [sid, sb] : by_session_) {
    if (sb.tokens <= 0) return false;
    if (static_cast<std::int64_t>(sb.block_ids.size()) !=
        blocks_for(sb.tokens)) {
      return false;
    }
    for (const auto b : sb.block_ids) {
      if (b < 0 || b >= config_.num_blocks) return false;
      ++expect[static_cast<std::size_t>(b)];
    }
  }
  for (const auto& n : prefix_.nodes_) {
    if (n.block < 0) continue;
    if (n.block >= config_.num_blocks) return false;
    ++expect[static_cast<std::size_t>(n.block)];
  }
  for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
    if (expect[static_cast<std::size_t>(b)] !=
        block_refs_[static_cast<std::size_t>(b)]) {
      return false;
    }
  }
  // The free list must be exactly the zero-ref blocks, strictly descending
  // (which also rules out duplicates).
  std::vector<bool> in_free(static_cast<std::size_t>(config_.num_blocks),
                            false);
  std::int32_t prev = std::numeric_limits<std::int32_t>::max();
  for (const auto b : free_) {
    if (b < 0 || b >= config_.num_blocks || b >= prev) return false;
    prev = b;
    in_free[static_cast<std::size_t>(b)] = true;
    if (block_refs_[static_cast<std::size_t>(b)] != 0) return false;
  }
  for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
    if (block_refs_[static_cast<std::size_t>(b)] == 0 &&
        !in_free[static_cast<std::size_t>(b)]) {
      return false;
    }
  }
  return true;
}

std::span<const float* const> KvPool::k_blocks(SessionId id) const {
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) return {};
  return it->second.k_ptrs;
}

std::span<const float* const> KvPool::v_blocks(SessionId id) const {
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) return {};
  return it->second.v_ptrs;
}

void KvPool::release(SessionId id) {
  const auto it = by_session_.find(id);
  if (it == by_session_.end()) return;
  // Refcount-aware: only pages whose last owner this session is are
  // recycled — shared prefix pages stay resident for their other owners.
  for (const auto block : it->second.block_ids) {
    unref_block(block);
  }
  by_session_.erase(it);
}

}  // namespace stof::serve
