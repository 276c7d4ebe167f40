// Serving engine: continuous batching over the simulated-GPU substrate.
//
// The engine owns the session table, the paged KV pool, a scheduler, and a
// gpusim::Stream, and advances in discrete steps.  Each step executes the
// scheduler's plan with the library's real kernels, one path per phase:
//   * every prefill — a whole admission or a chunk — is a query window
//     [begin, end) of its session's context: its K/V go into the KV pool
//     first, and mha::blockwise_attention_paged reads the whole context
//     from the pool's pages against the kind's base BSR (built once on the
//     kind's first prefill); windows are charged per mask kind as one
//     ragged varlen launch ("serve.prefill"), for the window's rows only;
//   * every decoding session runs one verify round — its true token plus
//     any speculative drafts, so plain decode is a round with zero drafts —
//     through a single batched mha::decode_attention_paged call over the
//     KV pool's pages (one "serve.decode" launch).
// The engine clock is *simulated* time: it advances by the Stream's
// estimate of each step's launches, so throughput and latency numbers are
// deterministic functions of the trace and the device model — the repo's
// standing substitution of simulated GPU time for wall time.
//
// Workload model: the q/k/v embedding of a token is a pure function of
// (session seed, position, channel) — fill_token() below.  That makes
// preemption recovery exact: a victim's KV pages are dropped and its full
// context re-prefilled later from the token function, reproducing the
// same bits.  The runners commit each position's attention-output row
// once, in position order, to the step's OutputRows, which an unsharded
// engine folds into session digests at the end of execute_step (a shard
// leaves that to its cluster) — so two runs (e.g. serial vs continuous)
// produce equal digests iff every per-session output byte matches.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "stof/gpusim/device.hpp"
#include "stof/gpusim/timeline.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/serve/output_digest.hpp"
#include "stof/serve/scheduler.hpp"
#include "stof/sparse/bsr_cache.hpp"

namespace stof::serve {

/// Channel selector for the synthetic token embedding.
enum class TokenChannel : int { kQuery = 0, kKey = 1, kValue = 2 };

/// Deterministic token embedding: fills `dst` (heads * head_size halfs,
/// laid out (head, dim)) as a pure function of (seed, pos, channel).
void fill_token(std::uint64_t seed, std::int64_t pos, TokenChannel channel,
                std::span<half> dst);

struct EngineConfig {
  std::int64_t heads = 4;
  std::int64_t head_size = 64;
  /// Tensor-parallel head shard (stof::cluster).  When `total_heads > 0`
  /// this engine owns the contiguous head range [head_offset,
  /// head_offset + heads) of a `total_heads`-head model: its KV pool,
  /// kernels, and costs all operate on the local heads only, while token
  /// embeddings are sliced out of the full-width token row so shard h of
  /// the cluster computes bit-identical bytes to heads [head_offset, ...)
  /// of a single-device run.  total_heads == 0 (default) is unsharded.
  std::int64_t head_offset = 0;
  std::int64_t total_heads = 0;
  /// Full-model head count: total_heads when sharded, heads otherwise.
  [[nodiscard]] std::int64_t model_heads() const {
    return total_heads > 0 ? total_heads : heads;
  }
  std::int64_t max_seq_len = 256;
  std::int64_t kv_blocks = 96;     ///< KV pool capacity in blocks
  std::int64_t block_tokens = 16;  ///< KV page size, must equal BLOCK_N
  mha::BlockwiseParams prefill_params{16, 16};
  /// Draft-and-verify speculative decoding: > 0 proposes that many draft
  /// tokens per decode round through a cheap draft pass (one head over a
  /// 64-token sliding KV window — cost model only),
  /// then verifies true-token + draft rows in ONE batched paged-decode
  /// launch.  The longest accepted draft prefix plus the guaranteed true
  /// token commit; rejected KV slots roll back exactly (KvPool::truncate),
  /// so per-session outputs and digests are byte-identical to plain
  /// decoding.  0 disables drafting: every round is one true token.
  std::int64_t spec_draft_tokens = 0;
  /// Simulated draft accuracy: percent of drafted positions whose proposal
  /// matches the true token stream (seeded per-position coin, so replay is
  /// deterministic and acceptance is measurable from telemetry).
  std::int64_t spec_accept_pct = 80;
  /// End-to-end model execution.  When enabled, every step's activation
  /// rows additionally run the full per-layer pipeline (out-proj,
  /// LayerNorm, FFN GEMM + activation around the real attention kernels):
  /// the layer costs are charged per fused segment (or per detached op,
  /// model.fused == false) on the gpusim timeline, and session digests
  /// fold the layer head's transform of each attention-output row instead
  /// of the raw row — one head pass over the step's committed rows.  kNone
  /// (default) preserves attention-only serving bit for bit.
  ModelSpec model;
  SchedulerConfig scheduler;
  gpusim::DeviceSpec device = gpusim::a100();

  void validate() const {
    STOF_EXPECTS(heads > 0 && head_size > 0 && max_seq_len > 0);
    STOF_EXPECTS(total_heads >= 0 && head_offset >= 0);
    if (total_heads > 0) {
      STOF_EXPECTS(head_offset + heads <= total_heads,
                   "head shard must fit inside the model's head range");
    } else {
      STOF_EXPECTS(head_offset == 0,
                   "head_offset requires total_heads (a sharded engine)");
    }
    // The paged-decode/blockwise bit-identity contract streams KV pages as
    // kernel key blocks; unequal sizes would reorder the softmax updates.
    STOF_EXPECTS(block_tokens == prefill_params.block_n,
                 "KV page size must equal the prefill kernel's BLOCK_N");
    STOF_EXPECTS(kv_blocks * block_tokens >= max_seq_len,
                 "pool must hold at least one full context");
    STOF_EXPECTS(spec_draft_tokens >= 0);
    if (spec_draft_tokens > 0) {
      STOF_EXPECTS(spec_accept_pct >= 0 && spec_accept_pct <= 100);
    }
    model.validate();
    scheduler.validate(max_seq_len);
  }
};

/// Everything one executed (but not yet finalized) step produced: the
/// plan that ran, the device's simulated kernel time, the committed output
/// rows, and the session transitions that must be stamped once the step's
/// *cluster-wide* duration is known (Engine::step() finalizes with the
/// device time; cluster::Cluster with max(device times) + collective
/// time).  Engine::on_step observers receive the finalized outcome.
struct StepOutcome {
  double start_us = 0;  ///< sim clock when the step began
  double us = 0;        ///< this device's simulated kernel time
  std::vector<SessionId> evicted;
  std::vector<PrefillChunk> prefills;  ///< prefill windows, in grant order
  std::vector<SessionId> decodes;
  std::vector<SessionId> first_token;  ///< produced their first token
  std::vector<SessionId> finished;     ///< completed this step
  std::int64_t prefill_tokens = 0;  ///< prompt positions ingested
  std::int64_t decode_rows = 0;     ///< decode query rows (incl. drafts)
  /// Raw attention-output rows (local heads wide) of every position not
  /// folded before, once each, in fold order.
  OutputRows rows;
};

struct EngineStats {
  std::int64_t steps = 0;
  std::int64_t submitted = 0;
  std::int64_t finished = 0;
  std::int64_t preemptions = 0;
  std::int64_t prefill_tokens = 0;
  std::int64_t decode_tokens = 0;
  std::int64_t prefill_chunks = 0;    ///< chunked-prefill slices executed
  std::int64_t deadline_misses = 0;   ///< finished after their deadline
};

class Engine {
 public:
  /// `model` is a tensor-parallel shard's model runtime (sharded,
  /// model-enabled configs only): a cluster hands every shard of one width
  /// the same cost-only runtime, so each shape bucket tunes once for all of
  /// them.  It must be weightless and match the config's model, heads,
  /// head_size and device.  nullptr (unsharded engines only) builds the
  /// engine's own runtime, weights included.
  explicit Engine(const EngineConfig& config,
                  std::shared_ptr<ModelRuntime> model = nullptr);

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Register a request; it joins the scheduler's wait queue.
  SessionId submit(const Request& request);

  /// Execute one scheduler step.  Returns false (and does nothing) when
  /// there is no admissible work — the driver then either stops or
  /// advances the clock to the next arrival and submits it.
  bool step();

  /// First half of step(): run the scheduler's plan through the kernels
  /// and report what happened WITHOUT advancing the clock or stamping
  /// session/engine statistics.  std::nullopt when there is no work.
  /// The caller must pass the outcome to finalize_step() exactly once.
  [[nodiscard]] std::optional<StepOutcome> execute_step();

  /// Second half of step(): advance the clock by `step_us` (the cluster-
  /// wide step duration — for a lone engine just `outcome.us`), stamp
  /// first-token / finish / deadline statistics, and emit step telemetry
  /// and the on_step notification.
  void finalize_step(const StepOutcome& outcome, double step_us);

  /// Run steps until no work remains.
  void run_until_drained() {
    while (step()) {
    }
  }

  /// Open-loop clock advance (to the next trace arrival while idle).
  void advance_to(double us) { clock_us_ = std::max(clock_us_, us); }

  [[nodiscard]] double sim_time_us() const { return clock_us_; }
  [[nodiscard]] bool idle() const;

  [[nodiscard]] const Session& session(SessionId id) const {
    return table_.at(id);
  }
  [[nodiscard]] const SessionTable& sessions() const { return table_; }
  [[nodiscard]] const KvPool& pool() const { return pool_; }
  [[nodiscard]] const gpusim::Stream& stream() const { return stream_; }
  /// Mutable stream access for the cluster runtime, which charges
  /// collective time onto each shard's timeline between execute_step()
  /// and finalize_step().
  [[nodiscard]] gpusim::Stream& stream_mut() { return stream_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  /// The model runtime (tuned plans, layer head); nullptr when the config
  /// has no model.
  [[nodiscard]] ModelRuntime* model_runtime() { return model_.get(); }

  /// Invoked after every executed step (not for empty plans) with the
  /// step's outcome, its index, its duration (the `step_us` it was
  /// finalized with) and the KV blocks in use after it.
  std::function<void(const StepOutcome&, std::int64_t step,
                     double duration_us, std::int64_t kv_used_blocks)>
      on_step;

 private:
  /// The kind's base BSR (pattern & causal at max_seq_len, prefill block
  /// size), built on first use: prefill derives each element's BSR from
  /// it, decode reads each row's columns from it.
  [[nodiscard]] const sparse::BsrMask& base_bsr(masks::PatternKind kind);

  /// Shard-aware token embedding: fills `dst` (heads * head_size halfs,
  /// the LOCAL head range) by generating the full model_heads() row of the
  /// token function and slicing out [head_offset, head_offset + heads).
  /// Unsharded engines take the full row directly; either way shard h's
  /// bytes equal heads [head_offset, ...) of a single-device run.
  void fill_token_local(std::uint64_t seed, std::int64_t pos,
                        TokenChannel channel, std::span<half> dst);
  /// Fill a pool slot with the widened K and V rows of (seed, pos).
  void fill_kv_local(std::uint64_t seed, std::int64_t pos,
                     const TokenSlot& slot);
  /// Prefill every window [begin, end): ingest its K/V rows into the pool
  /// and commit the output rows of its not-yet-folded positions.
  double run_prefill_windows(const std::vector<PrefillChunk>& windows,
                             StepOutcome& outcome);
  /// One verify round per decoding session: it appends its true token
  /// plus up to spec_draft_tokens draft slots and all rows verify in one
  /// batched paged-decode launch; the longest accepted prefix commits, the
  /// rest rolls back via KvPool::truncate.
  double run_decode_rounds(const std::vector<SessionId>& ids,
                           StepOutcome& outcome);

  EngineConfig config_;
  SessionTable table_;
  KvPool pool_;
  Scheduler scheduler_;
  gpusim::Stream stream_;
  /// Present iff config_.model.enabled(): tuned plans + layer head
  /// (possibly shared with the cluster's other shards of this width).
  std::shared_ptr<ModelRuntime> model_;
  double clock_us_ = 0;
  std::int64_t step_count_ = 0;
  EngineStats stats_;
  std::map<masks::PatternKind, sparse::BsrCache> mask_cache_;
  DigestFolder digests_;
  /// Scratch row for fill_token_local (full-width token row).
  std::vector<half> token_stage_;
  /// Scratch half row fill_kv_local widens into a pool slot.
  std::vector<half> kv_stage_;
};

}  // namespace stof::serve
