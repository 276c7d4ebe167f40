// Paged KV-cache pool (vLLM-style) for the serving engine.
//
// The pool owns one bounded FP32 arena per side (K and V), carved into
// fixed-size blocks of `block_tokens` positions; each block is
// (block_tokens, heads, head_size) row-major, the layout mha::PagedSeq
// consumes directly.  Each stored element is the exact widening of a half
// value (the modelled GPU stores FP16, and simulated cost charges 2 bytes
// per element), so the kernels read K/V rows without converting them.
// The arenas are allocated uninitialised, so resident memory follows the
// blocks handed out.  Sessions grow token by token: append_token() hands
// back writable K/V slots for the next position, allocating a fresh block
// from the free list when the session's last block fills, and fails
// cleanly (std::nullopt) when the pool is exhausted — the scheduler then
// decides whom to preempt.  Blocks are recycled via release(); the free
// list is kept sorted so allocation order is a pure function of the
// request sequence, never of pointer values.
//
// Prefix sharing (radix tree + copy-on-write): blocks carry reference
// counts, and a PrefixIndex radix tree maps templated-prompt token-ID
// chains (page-granularity nodes, keyed per mask kind) to resident pages.
// On admission the scheduler matches a request's template prefix against
// the tree and adopt_prefix() maps the shared page run into the session's
// block list at refcount+1 — the session then prefills only its unshared
// suffix.  Pool and tree know nothing of output digests (those live in
// output_digest.hpp).  The first mutating append to a shared page (a
// partial tail page, or the donor's own decode append after publishing)
// copies the page's valid rows into a private block first (CoW), so a
// shared page's bytes are immutable for as long as anything references
// it.  release()/truncate() are refcount-aware: a block is recycled only
// when the last owner drops it.  Pages held only by the tree are reclaimed
// LRU-subtree-first when the free list runs dry, so the prefix cache never
// displaces live sessions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/mha/decode.hpp"
#include "stof/serve/request.hpp"

namespace stof::serve {

struct KvPoolConfig {
  std::int64_t num_blocks = 0;    ///< pool capacity in blocks
  std::int64_t block_tokens = 0;  ///< positions per block (power of two)
  std::int64_t heads = 0;
  std::int64_t head_size = 0;

  void validate() const {
    STOF_EXPECTS(num_blocks > 0 && heads > 0 && head_size > 0);
    STOF_EXPECTS(block_tokens >= 1 &&
                     (block_tokens & (block_tokens - 1)) == 0,
                 "block_tokens must be a power of two");
  }
  /// Elements per block per side.
  [[nodiscard]] std::int64_t block_elems() const {
    return block_tokens * heads * head_size;
  }
};

/// Writable K/V destination for one appended token: `heads * head_size`
/// floats each, laid out (head, dim).  The caller stores widened half
/// values only.
struct TokenSlot {
  float* k = nullptr;
  float* v = nullptr;
};

/// Result of matching (or adopting) a request's template prefix against
/// the pool's radix tree.
struct PrefixMatch {
  std::int64_t tokens = 0;      ///< matched template positions
  std::int64_t full_pages = 0;  ///< matched pages holding block_tokens rows
  bool partial = false;         ///< a partial (frozen) tail page matched too

  [[nodiscard]] std::int64_t pages() const {
    return full_pages + (partial ? 1 : 0);
  }
};

/// Radix tree over templated-prompt token-ID chains at KV-page
/// granularity.  Each node freezes one pool block: `valid_tokens` rows of
/// template content (== block_tokens for interior nodes; partial nodes are
/// always leaves) and the page's token-key hash.  Roots branch on the
/// request's mask kind — prompt *outputs* depend on the attention pattern,
/// so chains never cross mask kinds.  The tree stores block ids
/// only; the owning KvPool maintains the per-block refcounts (one ref per
/// live node, plus one per session mapping the block).
class PrefixIndex {
 public:
  struct Node {
    std::int32_t block = -1;
    std::int64_t valid_tokens = 0;
    std::uint64_t page_key = 0;
    std::int64_t last_use = 0;   ///< LRU stamp (monotonic match clock)
    std::int32_t parent = -1;    ///< -1 for root children
    int mask_kind = 0;           ///< root key (redundant for non-roots)
    std::vector<std::int32_t> children;  ///< node ids, insertion order
  };

  /// Token-key hash of positions [begin, end) of `r`'s stream: the chain
  /// the tree matches on.  Pure function of (token seeds, positions).
  static std::uint64_t page_key(const Request& r, std::int64_t begin,
                                std::int64_t end);

  /// Deepest chain of `r`'s template prefix present in the tree, capped at
  /// `cap_tokens` positions.  Returns the matched node ids root-first.
  [[nodiscard]] std::vector<std::int32_t> walk(const Request& r,
                                               std::int64_t cap_tokens) const;

  [[nodiscard]] const Node& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const { return live_nodes_; }

 private:
  friend class KvPool;

  Node& node_mut(std::int32_t id) {
    return nodes_[static_cast<std::size_t>(id)];
  }
  /// Insert a node under `parent` (-1 = root level for `mask_kind`).
  std::int32_t insert(std::int32_t parent, int mask_kind, Node node);
  /// Remove the subtree rooted at `id`, invoking `on_drop(block)` for each
  /// removed node's block (the pool decrements refcounts there).
  template <typename Fn>
  void remove_subtree(std::int32_t id, Fn&& on_drop);
  /// Stamp `id` and its ancestors with `now` (ancestors never go older
  /// than their descendants, so subtree eviction order stays coherent).
  void touch_chain(std::int32_t id, std::int64_t now);

  std::vector<Node> nodes_;          ///< slot arena; freed slots recycled
  std::vector<std::int32_t> free_slots_;
  std::map<int, std::vector<std::int32_t>> roots_;  ///< mask kind -> children
  std::size_t live_nodes_ = 0;
};

/// Bounded paged KV-cache with per-session block lists (see the file
/// comment).
class KvPool {
 public:
  explicit KvPool(const KvPoolConfig& config);

  KvPool(const KvPool&) = delete;
  KvPool& operator=(const KvPool&) = delete;

  [[nodiscard]] const KvPoolConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t total_blocks() const {
    return config_.num_blocks;
  }
  [[nodiscard]] std::int64_t free_blocks() const {
    return static_cast<std::int64_t>(free_.size());
  }
  [[nodiscard]] std::int64_t used_blocks() const {
    return total_blocks() - free_blocks();
  }
  [[nodiscard]] std::int64_t peak_used_blocks() const { return peak_used_; }

  /// Blocks held only by the prefix tree (refcount == 1, no session):
  /// these are reclaimed LRU-first when allocation finds the free list
  /// empty, so they count as allocatable headroom for the scheduler.
  [[nodiscard]] std::int64_t reclaimable_blocks() const;
  /// Free-list blocks plus tree-reclaimable ones — what the scheduler may
  /// treat as obtainable without preempting a session.
  [[nodiscard]] std::int64_t allocatable_blocks() const {
    return free_blocks() + reclaimable_blocks();
  }
  /// Blocks the tree currently references (shared or not).
  [[nodiscard]] std::int64_t prefix_blocks() const {
    return static_cast<std::int64_t>(prefix_.size());
  }

  /// Blocks needed to hold `tokens` positions.
  [[nodiscard]] std::int64_t blocks_for(std::int64_t tokens) const {
    return (tokens + config_.block_tokens - 1) / config_.block_tokens;
  }

  /// Tokens currently cached for `id` (0 if the session holds nothing).
  [[nodiscard]] std::int64_t tokens(SessionId id) const;
  /// Blocks currently held by `id`.
  [[nodiscard]] std::int64_t blocks(SessionId id) const;

  /// Blocks `id` holds whose refcount is 1 — the pages release() would
  /// actually return to the free list.  The scheduler's preemption cost
  /// model must use this, not blocks(): evicting a prefix-sharing session
  /// frees only its private pages.
  [[nodiscard]] std::int64_t private_blocks(SessionId id) const;

  /// Blocks of `id` that survive appends as-is: all of them, minus one if
  /// the tail page is shared *and* partial (the first append must CoW it
  /// into a fresh block, consuming an allocation the tail page no longer
  /// saves).
  [[nodiscard]] std::int64_t usable_blocks(SessionId id) const;

  /// Allocations appending `n` more tokens to `id` will consume (fresh
  /// tail pages plus a possible CoW copy of a shared partial tail) — the
  /// number the scheduler must see in free/allocatable blocks before
  /// planning those appends.
  [[nodiscard]] std::int64_t append_reserve_blocks(SessionId id,
                                                   std::int64_t n) const {
    return blocks_for(tokens(id) + n) - usable_blocks(id);
  }

  /// Reserve the next position's K/V slot for `id`, allocating a block if
  /// the session's tail block is full.  A shared tail page is first copied
  /// into a private block (copy-on-write) — shared pages are immutable.
  /// Returns std::nullopt when the pool has no free or tree-reclaimable
  /// block to give (session state unchanged).  Counts the slot's half->FP32
  /// widening in serve.kv.sidecar_bytes_converted (2 source bytes per
  /// element, K and V).
  std::optional<TokenSlot> append_token(SessionId id);

  // ---- Prefix sharing ------------------------------------------------

  /// Deepest resident chain matching `r`'s template prefix (capped at
  /// `cap_tokens`), without mutating anything.  tokens == 0 when the tree
  /// has nothing (or sharing does not apply to `r`).
  [[nodiscard]] PrefixMatch match_prefix(const Request& r,
                                         std::int64_t cap_tokens) const;

  /// Map the matched chain into `id`'s (empty) block list at refcount+1
  /// and set its cached token count to the match length.  The session
  /// prefills only [match.tokens, ...) afterwards.  Counts
  /// serve.prefix.{hits,shared_pages,bytes_saved}.
  PrefixMatch adopt_prefix(SessionId id, const Request& r,
                           std::int64_t cap_tokens);

  /// Insert `id`'s freshly prefilled template pages into the tree (pages
  /// not already present, in chain order), bumping each published block's
  /// refcount.  Nothing is published unless the whole template is
  /// resident; a resident chain ending on a partial node is never extended
  /// (partial nodes are frozen leaves) — a fuller sibling page is published
  /// next to it instead.
  void publish_prefix(SessionId id, const Request& r);

  /// Drop `id`'s cached tokens beyond `new_tokens` — the speculative
  /// decoder's exact rollback of rejected draft slots.  Trailing blocks
  /// are unmapped (refcount-aware); a later append rewrites the surviving
  /// tail's rows in place.
  void truncate(SessionId id, std::int64_t new_tokens);

  /// Exhaustive internal audit: refcounts equal (sessions mapping the
  /// block) + (tree nodes referencing it), the free list is exactly the
  /// refcount-0 blocks with no duplicates, and session/tree token counts
  /// are consistent.  Fuzz tests call this after every step.
  [[nodiscard]] bool check_conservation() const;

  [[nodiscard]] const PrefixIndex& prefix_index() const { return prefix_; }

  /// Base pointers of the session's blocks, oldest first — the views a
  /// mha::PagedSeq wants.  Valid until the next append_token(), truncate()
  /// or release() for this id.
  [[nodiscard]] std::span<const float* const> k_blocks(SessionId id) const;
  [[nodiscard]] std::span<const float* const> v_blocks(SessionId id) const;

  /// Return every block `id` alone holds to the free list (preemption or
  /// completion).  No-op for sessions that hold nothing.
  void release(SessionId id);

 private:
  struct SessionBlocks {
    std::vector<std::int32_t> block_ids;
    std::vector<const float*> k_ptrs;
    std::vector<const float*> v_ptrs;
    std::int64_t tokens = 0;
  };

  /// Pop a block from the free list, reclaiming the LRU tree-only subtree
  /// when it is empty.  Returns -1 when nothing is obtainable.
  [[nodiscard]] std::int32_t acquire_block();
  /// Copy the valid rows of `id`'s shared partial tail page into a fresh
  /// private block, remapping the session's tail.  Returns false when no
  /// block is obtainable (session state unchanged).
  bool cow_tail(SessionBlocks& sb);
  /// Evict the least-recently-used tree subtree whose root block is held
  /// only by the tree.  Returns true if at least one block was freed.
  bool reclaim_lru_prefix();
  /// Drop one reference to `block`; on zero, return it to the free list.
  void unref_block(std::int32_t block);

  [[nodiscard]] float* k_base(std::int32_t block) {
    return k_arena_.get() +
           static_cast<std::size_t>(block) *
               static_cast<std::size_t>(config_.block_elems());
  }
  [[nodiscard]] float* v_base(std::int32_t block) {
    return v_arena_.get() +
           static_cast<std::size_t>(block) *
               static_cast<std::size_t>(config_.block_elems());
  }

  KvPoolConfig config_;
  std::unique_ptr<float[]> k_arena_;
  std::unique_ptr<float[]> v_arena_;
  /// Free block ids, sorted descending so pop_back() yields the smallest.
  std::vector<std::int32_t> free_;
  std::map<SessionId, SessionBlocks> by_session_;
  std::int64_t peak_used_ = 0;
  /// Per-block reference count: sessions mapping the block plus (0 or 1
  /// for) the prefix-tree node freezing it.  0 == on the free list.
  std::vector<std::int32_t> block_refs_;
  PrefixIndex prefix_;
  /// Monotonic LRU clock for prefix-tree touches (adopt/publish order,
  /// never wall time, so replay stays deterministic).
  std::int64_t prefix_clock_ = 0;
};

}  // namespace stof::serve
