#include "stof/serve/engine.hpp"

#include <algorithm>
#include <cstring>

#include "stof/core/checksum.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/decode.hpp"
#include "stof/mha/varlen.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {

void fill_token(std::uint64_t seed, std::int64_t pos, TokenChannel channel,
                std::span<half> dst) {
  // Hash (seed, pos, channel) into an Rng stream: the embedding depends on
  // nothing else, which is what makes preemption recovery bit-exact.
  const int which = static_cast<int>(channel);
  std::uint64_t h = fnv1a64(&pos, sizeof(pos), seed ^ kFnv1aOffset);
  h = fnv1a64(&which, sizeof(which), h);
  Rng rng(h);
  // Draw into a float staging block and convert through the dispatched
  // float->half kernel: the SIMD tables are byte-identical to scalar
  // half::from_float, so this produces the same embedding bits as the
  // per-element `half(v)` construction at panel-conversion speed.
  float stage[512];
  std::size_t i = 0;
  while (i < dst.size()) {
    const std::size_t n = std::min(dst.size() - i, std::size(stage));
    for (std::size_t j = 0; j < n; ++j) stage[j] = rng.uniform(-1.0f, 1.0f);
    packed::float_to_half({stage, n}, dst.subspan(i, n));
    i += n;
  }
}

namespace {

/// Per-position draft coin: deterministic "did the draft model propose the
/// true token at `pos`" — a pure function of (session seed, position), so
/// acceptance patterns replay identically across scheduling modes.
constexpr std::uint64_t kSpecCoinSalt = 0x5bec5bec5bec5becull;
/// Embedding-seed perturbation for rejected draft tokens: guarantees their
/// KV/query bits differ from the true stream without touching it.
constexpr std::uint64_t kSpecDraftSalt = 0xd12a'fced'0badull;

[[nodiscard]] bool spec_coin(const Request& r, std::int64_t pos,
                             std::int64_t accept_pct) {
  const std::uint64_t h = fnv1a64(&pos, sizeof(pos), r.seed ^ kSpecCoinSalt);
  return static_cast<std::int64_t>(h % 100) < accept_pct;
}

/// The draft pass: one head over a sliding window of the latest KV slots.
constexpr std::int64_t kSpecDraftHeads = 1;
constexpr std::int64_t kSpecDraftWindow = 64;

}  // namespace

Engine::Engine(const EngineConfig& config,
               std::shared_ptr<ModelRuntime> model)
    : config_(config),
      pool_(KvPoolConfig{config.kv_blocks, config.block_tokens, config.heads,
                         config.head_size}),
      // Reserve every KV slot a verify round appends (true token + k
      // drafts), so a round can never fail an append mid-batch.
      scheduler_(config.scheduler, config.spec_draft_tokens + 1),
      stream_(config.device),
      model_(std::move(model)),
      digests_(config.block_tokens) {
  config_.validate();
  if (model_) {
    // A tensor-parallel shard's plan table, shared by the cluster's shards
    // of one width: cost-only (the cluster owns the full-width layer head
    // that folds digests), and tuned for exactly this shard's graph and
    // device.
    STOF_EXPECTS(config_.total_heads > 0 && config_.model.enabled() &&
                     !model_->has_weights() &&
                     model_->matches(config_.model, config_.heads,
                                     config_.head_size, config_.device),
                 "a handed-in model runtime must be a cost-only runtime of "
                 "this shard's model, width and device");
  } else if (config_.model.enabled()) {
    STOF_EXPECTS(config_.total_heads == 0,
                 "a model-enabled shard takes its cluster's model runtime");
    model_ = std::make_shared<ModelRuntime>(
        config_.model, config_.heads, config_.head_size, config_.device,
        /*with_weights=*/true);
  }
  if (model_) {
    // "Model load": tune (or warm-load from the tuning DB) the buckets of
    // a full decode batch and of a full step's prefill — a continuous
    // step's prefill budget, or one context of at most max_seq_len rows in
    // a serial step — unless a shard of the same width already did.  Any
    // other bucket a step hits (a mixed prefill + decode step, a shorter
    // serial prefill) tunes lazily on first use.
    const SchedulerConfig& sc = scheduler_.config();
    model_->prewarm(sc.max_decode_batch);
    model_->prewarm(sc.mode == SchedulerMode::kSerial
                        ? std::min(sc.step_prefill_budget(),
                                   config_.max_seq_len)
                        : sc.step_prefill_budget());
  }
  telemetry::gauge("serve.kv.total_blocks",
                   static_cast<double>(config_.kv_blocks));
}

SessionId Engine::submit(const Request& request) {
  request.validate(config_.max_seq_len);
  table_.submit(request);
  scheduler_.enqueue(request.id);
  ++stats_.submitted;
  telemetry::count("serve.requests.submitted");
  return request.id;
}

bool Engine::idle() const {
  // Queued sessions are exactly the wait queue's, so with it empty the
  // engine is idle iff every submitted session has finished.
  return scheduler_.queue_empty() && stats_.finished == stats_.submitted;
}

const sparse::BsrMask& Engine::base_bsr(masks::PatternKind kind) {
  auto it = mask_cache_.find(kind);
  if (it == mask_cache_.end()) {
    // Serving is autoregressive: every pattern is intersected with the
    // causal triangle at the engine's fixed padded length, so a token's
    // attendable set never depends on batch composition or scheduling.
    const masks::Mask base =
        masks::MaskSpec{.kind = kind, .seq_len = config_.max_seq_len}.build();
    it = mask_cache_
             .try_emplace(kind, base & masks::causal(config_.max_seq_len))
             .first;
  }
  const mha::BlockwiseParams& params = config_.prefill_params;
  return it->second.at(params.block_m, params.block_n);
}

void Engine::fill_token_local(std::uint64_t seed, std::int64_t pos,
                              TokenChannel channel, std::span<half> dst) {
  if (config_.heads == config_.model_heads()) {
    fill_token(seed, pos, channel, dst);
    return;
  }
  // Sharded: the token function is defined over the FULL model row (the
  // Rng stream is sequential across channels of all heads), so generate
  // model_heads() * head_size halfs and slice out this shard's head range
  // — shard bytes match heads [head_offset, ...) of a single-device run.
  STOF_EXPECTS(dst.size() ==
               static_cast<std::size_t>(config_.heads * config_.head_size));
  const auto full = static_cast<std::size_t>(config_.model_heads() *
                                             config_.head_size);
  if (token_stage_.size() != full) token_stage_.resize(full);
  fill_token(seed, pos, channel, token_stage_);
  std::memcpy(dst.data(),
              token_stage_.data() +
                  static_cast<std::size_t>(config_.head_offset *
                                           config_.head_size),
              dst.size() * sizeof(half));
}

void Engine::fill_kv_local(std::uint64_t seed, std::int64_t pos,
                           const TokenSlot& slot) {
  const auto row = static_cast<std::size_t>(config_.heads * config_.head_size);
  kv_stage_.resize(row);
  fill_token_local(seed, pos, TokenChannel::kKey, kv_stage_);
  packed::half_to_float(kv_stage_, {slot.k, row});
  fill_token_local(seed, pos, TokenChannel::kValue, kv_stage_);
  packed::half_to_float(kv_stage_, {slot.v, row});
}

double Engine::run_prefill_windows(const std::vector<PrefillChunk>& windows,
                                   StepOutcome& outcome) {
  if (windows.empty()) return 0;
  // One ragged launch per mask kind, preserving plan order.  Each window
  // is an element of length `end` with query window [begin, end): the
  // kernel runs only the block rows covering the window, against the same
  // effective mask a one-shot prefill of length `end` would use — every
  // window row's streaming-softmax chain is identical to the one-shot
  // pass, which is what keeps chunked KV pages and digests bit-identical
  // to whole prefills.  A whole prefill is the window [cached, total), so
  // it too is charged only for the rows it serves.
  std::vector<std::pair<masks::PatternKind, std::vector<PrefillChunk>>> groups;
  for (const auto& chunk : windows) {
    const auto kind = table_.at(chunk.id).request.mask_kind;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == kind; });
    if (it == groups.end()) {
      groups.emplace_back(kind, std::vector<PrefillChunk>{chunk});
    } else {
      it->second.push_back(chunk);
    }
  }

  const std::int64_t heads = config_.heads;
  const std::int64_t d = config_.head_size;
  const std::int64_t seq = config_.max_seq_len;
  const auto row = static_cast<std::size_t>(heads * d);
  const mha::BlockwiseParams& params = config_.prefill_params;
  const std::int64_t bm = params.block_m;
  std::vector<half> q_rows;
  double us = 0;

  for (const auto& [kind, group] : groups) {
    // Append each window's positions to the pool first and synthesize
    // their K/V straight into the slots, as decode does (the scheduler
    // sized the windows to the blocks available this step).  Rows
    // [0, begin) — an earlier chunk's or an adopted prefix — are already
    // in the pool and are read from there.
    std::vector<std::int64_t> lengths, q_begins;
    for (const auto& chunk : group) {
      Session& s = table_.at(chunk.id);
      STOF_CHECK(s.cached_tokens == chunk.begin &&
                     pool_.tokens(chunk.id) == chunk.begin,
                 "chunk must resume at the session's cached prefix");
      for (std::int64_t pos = chunk.begin; pos < chunk.end; ++pos) {
        const auto slot = pool_.append_token(chunk.id);
        STOF_CHECK(slot.has_value(), "scheduler must size chunks to the pool");
        fill_kv_local(token_seed(s.request, pos), pos, *slot);
      }
      lengths.push_back(chunk.end);
      q_begins.push_back(chunk.begin);
    }
    const sparse::BsrMask& base = base_bsr(kind);
    const mha::MhaDims dims{static_cast<std::int64_t>(group.size()), heads,
                            seq, d};
    us += stream_.launch(
        "serve.prefill",
        mha::varlen_cost(dims, base, mha::VarlenBatch{seq, lengths, q_begins},
                         params, config_.device));

    for (const auto& chunk : group) {
      Session& s = table_.at(chunk.id);
      // Queries only need the rows the kernel reads: the window, extended
      // down to its block boundary.  The output rows of every position not
      // folded yet are committed straight into the step's rows; a
      // re-prefilled window (preempt mid-prefill, or a preempted decoder
      // rebuilding its context) recomputes folded rows but never
      // re-commits them.
      const std::int64_t q_lo = (chunk.begin / bm) * bm;
      q_rows.resize(static_cast<std::size_t>(chunk.end - q_lo) * row);
      for (std::int64_t pos = q_lo; pos < chunk.end; ++pos) {
        fill_token_local(token_seed(s.request, pos), pos, TokenChannel::kQuery,
                         std::span<half>(q_rows).subspan(
                             static_cast<std::size_t>(pos - q_lo) * row, row));
      }
      const std::int64_t out_lo = std::max(chunk.begin, s.folded_tokens);
      const std::size_t first_row = outcome.rows.size();
      for (std::int64_t pos = out_lo; pos < chunk.end; ++pos) {
        (void)outcome.rows.add(chunk.id, pos);
      }
      const mha::PagedSeq kv{chunk.end, config_.block_tokens,
                             pool_.k_blocks(chunk.id),
                             pool_.v_blocks(chunk.id), {}};
      mha::blockwise_attention_paged(
          heads, d, kv, base.prefix(chunk.end), params, q_rows, q_lo,
          std::span<half>(outcome.rows.data).subspan(first_row * row),
          std::min(out_lo, chunk.end));

      s.cached_tokens = chunk.end;
      if (s.cached_tokens == s.total_len()) {
        // Publish the freshly prefilled template pages to the prefix tree.
        if (scheduler_.config().prefix_sharing) {
          pool_.publish_prefix(chunk.id, s.request);
        }
        s.phase = SessionPhase::kDecoding;
      }
      s.last_touch_step = step_count_;
      stats_.prefill_tokens += chunk.tokens();
      outcome.prefill_tokens += chunk.tokens();
      telemetry::count("serve.prefill.tokens", chunk.tokens());
    }
  }
  return us;
}

double Engine::run_decode_rounds(const std::vector<SessionId>& ids,
                                 StepOutcome& outcome) {
  if (ids.empty()) return 0;
  const std::int64_t heads = config_.heads;
  const std::int64_t d = config_.head_size;
  const std::int64_t k = config_.spec_draft_tokens;

  // One verify round per session: row 0 is the guaranteed true token, rows
  // 1..rows-1 are draft proposals.  The accepted run is the leading stretch
  // of drafts whose per-position coin says the draft matched the true
  // stream; accepted rows carry the true token bits (the draft *was* the
  // true token), rejected rows carry a salted embedding.  Without drafts
  // (k == 0) every round is the plain decode of one token: rows == 1,
  // accept == 0, the unsalted seed, and no draft launch.
  struct Round {
    SessionId id = 0;
    std::int64_t pos = 0;     ///< position of row 0 (the true token)
    std::int64_t rows = 0;    ///< true token + drafts actually proposed
    std::int64_t accept = 0;  ///< leading accepted draft run
  };
  std::vector<Round> rounds;
  rounds.reserve(ids.size());
  // Each row's attendable columns, read from its kind's base BSR (looked
  // up once per kind per launch).
  std::vector<std::vector<std::int32_t>> cols;
  std::map<masks::PatternKind, const sparse::BsrMask*> bsrs;

  // Append every round's KV rows first: PagedSeq spans point into the
  // pool's per-session block-pointer vectors, which must be quiescent by
  // the time the batch descriptor is built.
  for (const SessionId id : ids) {
    Session& s = table_.at(id);
    Round r{id, s.total_len(), 0, 0};
    const std::int64_t budget = s.request.max_new_tokens - s.generated;
    r.rows = std::min(k + 1, budget);
    while (r.accept + 1 < r.rows &&
           spec_coin(s.request, r.pos + r.accept + 1, config_.spec_accept_pct)) {
      ++r.accept;
    }
    const sparse::BsrMask*& bsr = bsrs[s.request.mask_kind];
    if (bsr == nullptr) bsr = &base_bsr(s.request.mask_kind);
    for (std::int64_t j = 0; j < r.rows; ++j) {
      bsr->row_cols(r.pos + j, cols.emplace_back());
      const std::uint64_t seed = j <= r.accept
                                     ? s.request.seed
                                     : (s.request.seed ^ kSpecDraftSalt);
      const auto slot = pool_.append_token(id);
      STOF_CHECK(slot.has_value(),
                 "scheduler must reserve verify-round decode blocks");
      fill_kv_local(seed, r.pos + j, *slot);
    }
    s.cached_tokens = r.pos + r.rows;
    rounds.push_back(r);
  }

  std::int64_t total_rows = 0;
  std::int64_t committed = 0;
  for (const auto& r : rounds) {
    total_rows += r.rows;
    committed += r.accept + 1;
  }
  TensorH q(Shape{total_rows * heads, 1, d});
  std::vector<mha::PagedSeq> seqs(static_cast<std::size_t>(total_rows));
  std::vector<std::int64_t> valid, chunks, seq_rows, draft_valid;
  valid.reserve(static_cast<std::size_t>(total_rows));
  chunks.reserve(static_cast<std::size_t>(total_rows));
  seq_rows.reserve(rounds.size());
  std::int64_t row = 0;
  for (const auto& r : rounds) {
    Session& s = table_.at(r.id);
    for (std::int64_t j = 0; j < r.rows; ++j, ++row) {
      const std::int64_t pos = r.pos + j;
      const std::uint64_t seed = j <= r.accept
                                     ? s.request.seed
                                     : (s.request.seed ^ kSpecDraftSalt);
      fill_token_local(seed, pos, TokenChannel::kQuery,
                       q.data().subspan(
                           static_cast<std::size_t>(row * heads * d),
                           static_cast<std::size_t>(heads * d)));
      // Row j attends [0, pos + 1): later (rejected) draft slots live in
      // the same pages but are never in its column list, so an accepted
      // row's output is bit-identical to the sequential decode of pos.
      const auto& row_cols = cols[static_cast<std::size_t>(row)];
      seqs[static_cast<std::size_t>(row)] = mha::PagedSeq{
          pos + 1, config_.block_tokens, pool_.k_blocks(r.id),
          pool_.v_blocks(r.id), row_cols};
      valid.push_back(static_cast<std::int64_t>(row_cols.size()));
      chunks.push_back(mha::decode_chunks(row_cols, config_.block_tokens));
      // The draft pass proposes row j's token from a sliding KV window.
      if (j >= 1) {
        draft_valid.push_back(std::min(pos, kSpecDraftWindow));
      }
    }
    seq_rows.push_back(r.rows);
  }

  const TensorH out = mha::decode_attention_paged(heads, d, seqs, q);
  double us = 0;
  if (!draft_valid.empty()) {
    // The draft pass (cost model only) streams its kSpecDraftWindow
    // positions in one warp per (row, head): it never splits.
    const std::vector<std::int64_t> ones(draft_valid.size(), 1);
    us += stream_.launch(
        "serve.spec.draft",
        mha::decode_verify_cost(kSpecDraftHeads, d, draft_valid, ones, ones,
                                config_.device));
  }
  us += stream_.launch("serve.decode",
                       mha::decode_verify_cost(heads, d, valid, chunks,
                                               seq_rows, config_.device));

  // A round's committed rows are its leading ones, bit-identical to plain
  // decode rows; rejected rows roll back and are never committed, so
  // speculative digests stay byte-identical to non-speculative runs.
  const auto hd = static_cast<std::size_t>(heads * d);
  std::int64_t drafted = 0, accepted = 0, rollbacks = 0;
  row = 0;
  for (const auto& r : rounds) {
    Session& s = table_.at(r.id);
    const std::int64_t commit = r.accept + 1;
    for (std::int64_t j = 0; j < commit; ++j) {
      std::ranges::copy(
          out.data().subspan(static_cast<std::size_t>(row + j) * hd, hd),
          outcome.rows.add(r.id, r.pos + j).begin());
    }
    row += r.rows;
    if (commit < r.rows) pool_.truncate(r.id, r.pos + commit);
    s.cached_tokens = r.pos + commit;
    // Transitions are recorded here and stamped by finalize_step, once the
    // step's full duration is known.
    if (s.generated == 0) outcome.first_token.push_back(r.id);
    s.generated += commit;
    s.last_touch_step = step_count_;
    if (s.done()) {
      s.phase = SessionPhase::kFinished;
      ++stats_.finished;
      pool_.release(r.id);
      outcome.finished.push_back(r.id);
    }
    drafted += r.rows - 1;
    accepted += r.accept;
    rollbacks += r.rows - commit;
  }
  stats_.decode_tokens += committed;
  outcome.decode_rows += total_rows;
  telemetry::count("serve.decode.tokens", committed);
  if (drafted > 0) {
    telemetry::count("serve.spec.drafted", drafted);
    telemetry::count("serve.spec.accepted", accepted);
    telemetry::count("serve.spec.rollbacks", rollbacks);
  }
  return us;
}

std::optional<StepOutcome> Engine::execute_step() {
  StepPlan plan = scheduler_.plan_step(table_, pool_);
  if (plan.empty()) return std::nullopt;

  StepOutcome outcome;
  outcome.start_us = clock_us_;
  outcome.rows.width = config_.heads * config_.head_size;

  stats_.preemptions += static_cast<std::int64_t>(plan.evicted.size());
  if (!plan.evicted.empty()) {
    telemetry::count("serve.requests.preempted",
                     static_cast<std::int64_t>(plan.evicted.size()));
  }

  // Admission and chunk counters follow the plan, not the runner.  A
  // window that starts at the session's adoption boundary (0 when nothing
  // was adopted) is an admission; chunk counters stay 0 for whole prefills.
  const bool chunked = scheduler_.config().chunked();
  std::int64_t admitted = 0;
  for (const auto& w : plan.prefills) {
    if (w.begin == table_.at(w.id).adopted_tokens) ++admitted;
    if (!chunked) continue;
    ++stats_.prefill_chunks;
    telemetry::count("serve.sched.chunks_emitted");
    telemetry::count("serve.sched.chunk_tokens", w.tokens());
  }
  if (admitted > 0) telemetry::count("serve.requests.admitted", admitted);

  double us = run_prefill_windows(plan.prefills, outcome);
  us += run_decode_rounds(plan.decodes, outcome);
  // Model execution: the step's activation rows (prefill tokens + decode
  // rows, one packed batch in a real server) run the per-layer non-MHA
  // pipeline — charged tuned-fused or launch-per-op onto this stream.
  // The attention kernels above already charged the MHA segments.
  if (model_) {
    const std::int64_t rows = outcome.prefill_tokens + outcome.decode_rows;
    if (rows > 0) us += model_->charge_step(stream_, rows);
  }
  // Fold the step's rows into session digests; a shard only advances each
  // session's folded mark and leaves the folding to its cluster.
  if (config_.total_heads > 0) {
    for (const auto& key : outcome.rows.keys) {
      table_.at(key.id).folded_tokens = key.pos + 1;
    }
  } else {
    digests_.fold(outcome.rows, model_.get(), [this](SessionId id) {
      Session& s = table_.at(id);
      return DigestChain{&s.request, &s.digest, &s.folded_tokens};
    });
  }
  outcome.us = us;
  outcome.evicted = std::move(plan.evicted);
  outcome.prefills = std::move(plan.prefills);
  outcome.decodes = std::move(plan.decodes);
  return outcome;
}

void Engine::finalize_step(const StepOutcome& outcome, double step_us) {
  STOF_EXPECTS(step_us >= outcome.us,
               "a step cannot finish before its own kernels do");
  clock_us_ += step_us;

  for (const auto id : outcome.first_token) {
    table_.at(id).first_token_us = clock_us_;
  }
  for (const auto id : outcome.finished) {
    Session& s = table_.at(id);
    s.finish_us = clock_us_;
    if (s.request.deadline_us > 0 && s.finish_us > s.request.deadline_us) {
      ++stats_.deadline_misses;
      telemetry::count("serve.sched.deadline_misses");
    }
  }
  if (!outcome.finished.empty()) {
    telemetry::count("serve.requests.finished",
                     static_cast<std::int64_t>(outcome.finished.size()));
  }

  ++step_count_;
  ++stats_.steps;
  telemetry::count("serve.steps");
  telemetry::observe("serve.batch.decode_size",
                     static_cast<double>(outcome.decodes.size()));
  telemetry::observe("serve.batch.prefill_size",
                     static_cast<double>(outcome.prefills.size()));
  if (scheduler_.config().chunked() && !outcome.prefills.empty()) {
    telemetry::observe("serve.batch.chunk_tokens",
                       static_cast<double>(outcome.prefill_tokens));
  }
  telemetry::observe("serve.kv.used_blocks",
                     static_cast<double>(pool_.used_blocks()));

  if (on_step) on_step(outcome, step_count_ - 1, step_us, pool_.used_blocks());
}

bool Engine::step() {
  std::optional<StepOutcome> outcome = execute_step();
  if (!outcome) return false;
  finalize_step(*outcome, outcome->us);
  return true;
}

}  // namespace stof::serve
