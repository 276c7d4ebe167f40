// Output digests: the one path from committed attention-output rows to
// per-session FNV-1a digests.  Each step collects the rows it commits in
// one OutputRows buffer on its StepOutcome; a DigestFolder applies the
// model head once to a batch of full-width rows, chains each row into its
// session's digest (each position once, in order — checked), records chain
// values at template page boundaries and template ends, keyed by template
// content, and seeds a prefix adopter (first folded row past position 0)
// from them.  An unsharded Engine and a Cluster each run one folder.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "stof/core/half.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/serve/request.hpp"

namespace stof::serve {

/// Rows committed by one step, in fold order: row r is position
/// keys[r].pos of session keys[r].id, `width` halfs at data[r * width].
struct OutputRows {
  struct Key {
    SessionId id = 0;
    std::int64_t pos = 0;
  };
  std::int64_t width = 0;
  std::vector<Key> keys;
  std::vector<half> data;

  [[nodiscard]] std::size_t size() const { return keys.size(); }
  [[nodiscard]] std::span<const half> row(std::size_t r) const {
    const auto w = static_cast<std::size_t>(width);
    return std::span<const half>(data).subspan(r * w, w);
  }
  /// Append row (id, pos) and return its `width` halfs to fill.
  std::span<half> add(SessionId id, std::int64_t pos) {
    keys.push_back({id, pos});
    data.resize(data.size() + static_cast<std::size_t>(width));
    return std::span<half>(data).last(static_cast<std::size_t>(width));
  }
};

/// Where one session's chain lives: its request, its FNV-1a value and the
/// count of positions folded into it.
struct DigestChain {
  const Request* request = nullptr;
  std::uint64_t* digest = nullptr;
  std::int64_t* folded = nullptr;
};

class DigestFolder {
 public:
  /// Chain values are recorded where a `block_tokens` page completes.
  explicit DigestFolder(std::int64_t block_tokens)
      : block_tokens_(block_tokens) {}

  /// Fold `rows` into the chains `chain_of(id)` names; `head` (nullable)
  /// is the model's full-width layer head.
  void fold(const OutputRows& rows, const ModelRuntime* head,
            const std::function<DigestChain(SessionId)>& chain_of);

 private:
  std::int64_t block_tokens_;
  /// Chain value after a template's first `tokens` positions, keyed by
  /// (template seed, mask kind, tokens): the template's tokens are a pure
  /// function of its seed and every serving mask is causal, so the value
  /// depends on nothing else and is never invalidated.
  std::map<std::uint64_t, std::uint64_t> template_chain_;
};

}  // namespace stof::serve
