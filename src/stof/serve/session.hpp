// Session table: per-request serving state.
//
// A Session tracks how far a request has progressed (tokens cached in the
// KV pool, tokens generated), its output digest, and the scheduling
// metadata the continuous-batching scheduler needs (last-touch step for
// LRU-idle eviction, preemption count, latency timestamps).  The digest is
// an FNV-1a chain over the half-precision output bytes of each position,
// folded exactly once per position in position order (output_digest.hpp)
// — so it is invariant to scheduling mode and to preemption/recompute, and
// two runs agree iff their per-session outputs are byte-identical.
#pragma once

#include <map>
#include <vector>

#include "stof/core/checksum.hpp"
#include "stof/serve/request.hpp"

namespace stof::serve {

/// Mutable serving state of one request.
struct Session {
  Request request;
  SessionPhase phase = SessionPhase::kQueued;

  std::int64_t cached_tokens = 0;  ///< KV entries currently in the pool
  std::int64_t generated = 0;      ///< decode outputs produced so far
  std::uint64_t digest = kFnv1aOffset;  ///< FNV-1a over output bytes
  /// Positions [0, folded_tokens) already folded, prompt and generated
  /// alike: runners commit rows only past it, so recomputed rows never
  /// re-fold.  A prefix adopter's first fold jumps it to the boundary.
  std::int64_t folded_tokens = 0;

  /// Tokens mapped from the prefix tree at (re-)admission: the session's
  /// prefill starts here instead of 0.  Reset to 0 on eviction (the KV is
  /// released; the next admission re-matches the tree from scratch).
  std::int64_t adopted_tokens = 0;

  std::int64_t preemptions = 0;
  std::int64_t last_touch_step = -1;  ///< last step this session computed
  /// Target length already charged to the tenant's fairness deficit.
  /// Re-admission after preemption does not charge (or gate) again — the
  /// tenant paid once and eviction was the scheduler's choice, not theirs.
  bool deficit_charged = false;

  double first_token_us = -1;  ///< sim time of first decode output
  double finish_us = -1;       ///< sim time the last token completed

  /// Context length the session must hold to decode its next token:
  /// the prompt plus everything generated so far.
  [[nodiscard]] std::int64_t total_len() const {
    return request.prompt_len + generated;
  }
  [[nodiscard]] bool done() const {
    return generated >= request.max_new_tokens;
  }
};

/// Ordered id -> Session map with convenience queries.
class SessionTable {
 public:
  /// Insert a new queued session; ids must be unique.
  Session& submit(const Request& request) {
    STOF_EXPECTS(!sessions_.contains(request.id), "duplicate session id");
    auto [it, inserted] = sessions_.emplace(request.id, Session{request});
    return it->second;
  }

  [[nodiscard]] Session& at(SessionId id) {
    auto it = sessions_.find(id);
    STOF_EXPECTS(it != sessions_.end(), "unknown session id");
    return it->second;
  }
  [[nodiscard]] const Session& at(SessionId id) const {
    auto it = sessions_.find(id);
    STOF_EXPECTS(it != sessions_.end(), "unknown session id");
    return it->second;
  }
  [[nodiscard]] bool contains(SessionId id) const {
    return sessions_.contains(id);
  }
  [[nodiscard]] std::size_t size() const { return sessions_.size(); }

  /// Ids currently in `phase`, ascending.
  [[nodiscard]] std::vector<SessionId> ids_in_phase(SessionPhase phase) const {
    std::vector<SessionId> ids;
    for (const auto& [id, s] : sessions_) {
      if (s.phase == phase) ids.push_back(id);
    }
    return ids;
  }

  [[nodiscard]] auto begin() const { return sessions_.begin(); }
  [[nodiscard]] auto end() const { return sessions_.end(); }

 private:
  std::map<SessionId, Session> sessions_;
};

}  // namespace stof::serve
