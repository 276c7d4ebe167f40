// Continuous-batching scheduler.
//
// Each engine step the scheduler turns the current session/pool state into
// a StepPlan: which sessions to preempt when the KV pool cannot back every
// decoder's next token, which prefill windows [begin, end) to run, and
// which active sessions decode one token (all of them, batched into a
// single kernel).  The plan is a pure function of (table, pool, queue,
// deficit) state, so a seeded trace replays deterministically.
//
// kContinuous runs one planner.  Admission walks the wait queue priority-
// first, earliest deadline next, queue position last; admitted sessions
// enter kPrefilling and receive prefill windows out of a per-step token
// budget.  With `chunk_tokens > 0` the budget is chunk_tokens and a window
// may be any non-empty slice, so long prompts ride several steps beside
// the decode batch.  With `chunk_tokens == 0` the budget is
// prefill_token_budget and every grant is atomic: a session gets its whole
// window [cached, total) in its admission step or nothing, and an ordered
// head that cannot get it blocks the line (head-of-line blocking: a long
// prompt stalls every decoder — the p99 killer chunking exists to fix).
// Sessions evicted under KV pressure re-queue at the front and re-prefill
// their full context on re-admission.
//
// kSerial is the baseline the bench compares against: strict FIFO, one
// session at a time, a whole prefill then token-by-token decode to
// completion before the next request is admitted.  Same engine, same
// kernels, same per-session numerics — only the packing differs.
//
// SLO machinery, in both kContinuous modes (all off by default):
//   * Priorities: preemption victims are chosen lowest-priority-first
//     (ties: idlest last_touch_step, then youngest id — the LRU order),
//     and a window that cannot get its KV blocks may preempt strictly-
//     lower-priority residents.
//   * Fairness: with `fairness_quantum_tokens > 0`, admission runs
//     weighted deficit round-robin over tenants — each planning step tops
//     up every tenant with queued work by quantum * weight tokens, and
//     admitting a session spends its target length from its tenant's
//     deficit (once — re-admission after a preemption neither charges nor
//     gates again).  A tenant that cannot afford its next session waits (others
//     may pass it); if nothing else is runnable the head session is
//     force-admitted so the engine never idles while work is queued
//     (work conservation; the charge still applies and may go negative).
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "stof/serve/kv_pool.hpp"
#include "stof/serve/session.hpp"

namespace stof::serve {

enum class SchedulerMode : std::uint8_t { kContinuous, kSerial };

struct SchedulerConfig {
  SchedulerMode mode = SchedulerMode::kContinuous;
  std::int64_t max_prefills_per_step = 8;  ///< sessions admitted per step
  std::int64_t prefill_token_budget = 1024;  ///< prompt tokens per step
  std::int64_t max_decode_batch = 256;  ///< decode sequences per step
  /// Chunked prefill: > 0 caps the prefill tokens packed into one step's
  /// varlen batch and lets prompts resume across steps.  0 prefills every
  /// prompt whole, as one atomic grant under prefill_token_budget.
  std::int64_t chunk_tokens = 0;
  /// Weighted-deficit-round-robin quantum (tokens topped up per tenant per
  /// planning step, scaled by tenant weight).  0 disables fairness.
  std::int64_t fairness_quantum_tokens = 0;
  /// Relative tenant weights for the fairness accountant (default 1).
  std::map<std::int32_t, std::int64_t> tenant_weights;
  /// Prefix sharing: admitted sessions with a templated prompt adopt the
  /// pool's resident prefix pages and prefill only their unshared suffix.
  /// A queued request whose template a session mid-prefill is computing
  /// (and the tree does not hold whole yet) waits for its publish instead
  /// of computing the template again (`serve.sched.prefix_deferrals`).
  /// Requests with template_len == 0 are unaffected either way, so the
  /// default changes nothing for legacy traces.
  bool prefix_sharing = true;

  /// True when prefills are split into chunks; otherwise every prefill is
  /// one whole-context window.
  [[nodiscard]] bool chunked() const {
    return mode == SchedulerMode::kContinuous && chunk_tokens > 0;
  }
  /// Prompt tokens one continuous-mode step's prefill windows may spend
  /// together: chunk_tokens when chunked, prefill_token_budget otherwise.
  /// plan_continuous spends it, and model load prewarms its shape bucket.
  /// It bounds prefill rows only: a mixed step's rows (prefill + decode)
  /// and a serial step's whole context can land in other buckets.
  [[nodiscard]] std::int64_t step_prefill_budget() const {
    return chunked() ? chunk_tokens : prefill_token_budget;
  }

  void validate(std::int64_t max_seq_len) const {
    STOF_EXPECTS(max_prefills_per_step >= 1 && max_decode_batch >= 1);
    STOF_EXPECTS(chunk_tokens >= 0 && fairness_quantum_tokens >= 0);
    if (chunk_tokens == 0) {
      STOF_EXPECTS(prefill_token_budget >= max_seq_len,
                   "prefill budget must admit the longest context");
    }
    for (const auto& [tenant, weight] : tenant_weights) {
      STOF_EXPECTS(tenant >= 0 && weight >= 1,
                   "tenant weights must be >= 1");
    }
  }
};

/// One prefill window: ingest positions [begin, end) of a session's
/// context this step — a whole prefill [cached, total) or a chunk of it.
struct PrefillChunk {
  SessionId id = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;

  [[nodiscard]] std::int64_t tokens() const { return end - begin; }
};

/// One step's worth of scheduling decisions, in execution order.
struct StepPlan {
  std::vector<SessionId> evicted;      ///< preempted before this step's work
  std::vector<PrefillChunk> prefills;  ///< prefill windows, in grant order
  std::vector<SessionId> decodes;      ///< decode one token, ascending id

  [[nodiscard]] bool empty() const {
    return evicted.empty() && prefills.empty() && decodes.empty();
  }
};

class Scheduler {
 public:
  /// `decode_appends`: KV slots each selected decoder appends per step
  /// (1 = plain decoding; a speculative engine reserves draft tokens + 1).
  explicit Scheduler(const SchedulerConfig& config,
                     std::int64_t decode_appends = 1)
      : config_(config), decode_appends_(decode_appends) {
    STOF_EXPECTS(decode_appends_ >= 1, "decoders append at least one slot");
  }

  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  /// Add a freshly submitted session to the back of the wait queue.
  void enqueue(SessionId id) { waiting_.push_back(id); }

  /// True when nothing is waiting (the engine also checks for decoders).
  [[nodiscard]] bool queue_empty() const { return waiting_.empty(); }

  /// Current fairness deficit of `tenant` in tokens (0 when unknown).
  [[nodiscard]] std::int64_t tenant_deficit(std::int32_t tenant) const {
    const auto it = deficit_.find(tenant);
    return it == deficit_.end() ? 0 : it->second;
  }

  /// Compute this step's plan.  Mutates the wait queue (admissions pop,
  /// evictions push front) and sets evicted sessions back to kQueued with
  /// their KV released; the engine applies the rest of the plan.
  StepPlan plan_step(SessionTable& table, KvPool& pool);

 private:
  StepPlan plan_continuous(SessionTable& table, KvPool& pool);
  StepPlan plan_serial(SessionTable& table, KvPool& pool);

  /// Pick the preemption victim among `candidates`: lowest priority first,
  /// then smallest last_touch_step (idlest), ties broken toward the
  /// largest (youngest) id.  Equal priorities reduce to the legacy
  /// LRU-idle order.
  static SessionId pick_victim(const SessionTable& table,
                               const std::vector<SessionId>& candidates);

  /// Release `victim`'s KV and re-queue it at the front of the wait queue
  /// (it keeps its seniority); records eviction telemetry.  The eviction
  /// cost model counts only the victim's private (refcount == 1) pages —
  /// shared prefix pages survive the release.
  void evict(SessionTable& table, KvPool& pool, StepPlan& plan,
             SessionId victim);

  /// Longest tree prefix `s` may adopt: its whole template for a fresh
  /// session, but never past folded_tokens for a re-admitted one (adopting
  /// beyond would skip output positions its digest still owes).
  [[nodiscard]] std::int64_t adopt_cap(const Session& s) const;
  /// Dry-run prefix match for admission accounting (empty when sharing is
  /// off or the request is untemplated).
  [[nodiscard]] PrefixMatch admission_match(const KvPool& pool,
                                            const Session& s) const;
  /// Adopt `s`'s prefix at admission time: map the shared pages and set
  /// the cached/adopted token counts.
  void admit_with_prefix(Session& s, KvPool& pool) const;

  /// True when a session mid-prefill carries `s`'s template (same
  /// template_seed, template_len and mask_kind) under prefix sharing: its
  /// pages are published once that prefill completes.
  [[nodiscard]] bool template_prefilling(const SessionTable& table,
                                         const Session& s) const;

  /// The wait queue in priority order: priority descending, then earliest
  /// deadline (0 = none = last within its class), then queue position.
  [[nodiscard]] std::vector<SessionId> admission_order(
      const SessionTable& table) const;

  [[nodiscard]] std::int64_t tenant_weight(std::int32_t tenant) const {
    const auto it = config_.tenant_weights.find(tenant);
    return it == config_.tenant_weights.end() ? 1 : it->second;
  }

  SchedulerConfig config_;
  std::int64_t decode_appends_ = 1;
  std::deque<SessionId> waiting_;
  /// Sessions mid-prefill, in admission order; pruned each plan to those
  /// still kPrefilling (whole prefills leave it in their admission step).
  std::deque<SessionId> prefilling_;
  /// Weighted-deficit-round-robin token accounts, by tenant.
  std::map<std::int32_t, std::int64_t> deficit_;
};

}  // namespace stof::serve
