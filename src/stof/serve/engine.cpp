#include "stof/serve/engine.hpp"

#include <algorithm>
#include <cstring>

#include "stof/core/checksum.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
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

/// The scheduler must reserve every KV slot a verify round appends (true
/// token + k drafts), so a round can never fail an append mid-batch.
[[nodiscard]] SchedulerConfig effective_scheduler(const EngineConfig& c) {
  SchedulerConfig s = c.scheduler;
  s.decode_appends = std::max(s.decode_appends, c.spec_draft_tokens + 1);
  return s;
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      pool_(KvPoolConfig{config.kv_blocks, config.block_tokens, config.heads,
                         config.head_size}),
      scheduler_(effective_scheduler(config)),
      stream_(config.device) {
  config_.validate();
  if (config_.model.enabled()) {
    // A tensor-parallel shard charges the shard-width slice of every layer
    // GEMM but never folds transformed rows (the cluster owns the
    // full-width model head), so it skips the numeric weights.
    model_ = std::make_unique<ModelRuntime>(
        config_.model, config_.heads, config_.head_size, config_.device,
        /*with_weights=*/config_.total_heads == 0);
    // "Model load": tune (or warm-load from the tuning DB) the canonical
    // decode and prefill shape buckets up front; any other bucket a step
    // hits tunes lazily on first use.
    model_->prewarm(scheduler_.config().max_decode_batch);
    model_->prewarm(scheduler_.config().prefill_token_budget);
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
  return scheduler_.queue_empty() &&
         table_.ids_in_phase(SessionPhase::kPrefilling).empty() &&
         table_.ids_in_phase(SessionPhase::kDecoding).empty();
}

sparse::BsrCache& Engine::mask_for(masks::PatternKind kind) {
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
  return it->second;
}

const std::vector<std::int32_t>& Engine::cols_for(masks::PatternKind kind,
                                                  std::int64_t row) {
  auto& rows = cols_cache_[kind];
  if (rows.empty()) {
    rows.resize(static_cast<std::size_t>(config_.max_seq_len));
  }
  auto& entry = rows[static_cast<std::size_t>(row)];
  if (!entry) {
    const masks::Mask& mask = mask_for(kind).mask();
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j <= row; ++j) {
      if (mask.at(row, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    entry = std::move(cols);
  }
  return *entry;
}

void Engine::fill_token_local(std::uint64_t seed, std::int64_t pos,
                              TokenChannel channel, std::span<half> dst) {
  if (config_.total_heads == 0) {
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

void Engine::fold_output_row(Session& s, std::int64_t pos,
                             std::span<const half> digest_row,
                             std::span<const half> raw_row) {
  s.digest = fnv1a64(digest_row.data(), digest_row.size_bytes(), s.digest);
  if (on_output_row) on_output_row(s.request.id, pos, raw_row);
}

TensorH Engine::transform_for_digest(std::span<const half> rows,
                                     std::int64_t count) {
  if (!model_digest_active() || count == 0) return {};
  TensorH t(Shape{count, config_.heads * config_.head_size});
  std::memcpy(t.data().data(), rows.data(), t.data().size_bytes());
  model_->transform_rows(t);
  return t;
}

void Engine::capture_template_digest(Session& s, std::int64_t pos) {
  const std::int64_t tl = s.request.template_len;
  if (tl <= 0 || pos >= tl) return;
  const std::int64_t bt = config_.block_tokens;
  // Chain values are recorded where a page completes (or the template
  // ends): exactly the points publish_prefix() stores alongside pages, so
  // an adopter can start its digest mid-stream.
  if ((pos + 1) % bt != 0 && pos + 1 != tl) return;
  const auto pages = static_cast<std::size_t>((tl + bt - 1) / bt);
  if (s.template_page_digest.size() != pages) {
    s.template_page_digest.assign(pages, 0);
    s.template_page_digest_ok.assign(pages, 0);
  }
  const auto q = static_cast<std::size_t>(pos / bt);
  s.template_page_digest[q] = s.digest;
  s.template_page_digest_ok[q] = 1;
}

void Engine::maybe_publish_prefix(Session& s) {
  if (!scheduler_.config().prefix_sharing || s.request.template_len <= 0) {
    return;
  }
  pool_.publish_prefix(s.request.id, s.request, s.template_page_digest,
                       s.template_page_digest_ok);
}

double Engine::run_prefill_windows(const std::vector<PrefillChunk>& windows,
                                   StepOutcome& outcome) {
  if (windows.empty()) return 0;
  // One ragged varlen launch per mask kind, preserving plan order.  Each
  // window is an element of length `end` with query window [begin, end):
  // the kernel runs only the block rows covering the window, against the
  // same effective mask a one-shot prefill of length `end` would use —
  // every window row's streaming-softmax chain is identical to the
  // one-shot pass, which is what keeps chunked KV pages and digests
  // bit-identical to whole prefills.  A whole prefill is the window
  // [cached, total), so it too is charged only for the rows it serves.
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
  const mha::BlockwiseParams& params = config_.prefill_params;
  const std::int64_t bm = params.block_m;
  std::vector<half> tok(static_cast<std::size_t>(heads * d));
  double us = 0;

  for (const auto& [kind, group] : groups) {
    const auto n = static_cast<std::int64_t>(group.size());
    const mha::MhaDims dims{n, heads, seq, d};
    TensorH q(dims.qkv_shape()), k(dims.qkv_shape()), v(dims.qkv_shape());
    std::vector<std::int64_t> lengths, q_begins;
    lengths.reserve(group.size());
    q_begins.reserve(group.size());
    for (std::int64_t b = 0; b < n; ++b) {
      const auto& chunk = group[static_cast<std::size_t>(b)];
      const Session& s = table_.at(chunk.id);
      lengths.push_back(chunk.end);
      q_begins.push_back(chunk.begin);
      // Keys/values cover the whole context [0, end) — the window's rows
      // attend every earlier position.  Queries only need the rows the
      // kernel reads: the window, extended down to its block boundary.
      const std::int64_t q_lo = (chunk.begin / bm) * bm;
      for (std::int64_t pos = 0; pos < chunk.end; ++pos) {
        // Channels in TokenChannel order: query (window rows only), K, V.
        for (int ch = pos < q_lo ? 1 : 0; ch < 3; ++ch) {
          fill_token_local(token_seed(s.request, pos), pos,
                           static_cast<TokenChannel>(ch), tok);
          TensorH& dst = ch == 0 ? q : (ch == 1 ? k : v);
          for (std::int64_t h = 0; h < heads; ++h) {
            std::memcpy(&dst.at(b * heads + h, pos, 0),
                        &tok[static_cast<std::size_t>(h * d)],
                        static_cast<std::size_t>(d) * sizeof(half));
          }
        }
      }
    }
    const sparse::BsrMask& base =
        mask_for(kind).at(params.block_m, params.block_n);
    const mha::VarlenBatch batch{seq, lengths, q_begins};
    const TensorH out =
        mha::varlen_attention(dims, q, k, v, base, batch, params);
    us += stream_.launch(
        "serve.prefill",
        mha::varlen_cost(dims, base, batch, params, config_.device));

    for (std::int64_t b = 0; b < n; ++b) {
      const auto& chunk = group[static_cast<std::size_t>(b)];
      Session& s = table_.at(chunk.id);
      STOF_CHECK(s.cached_tokens == chunk.begin,
                 "chunk must resume at the session's cached prefix");
      // Ingest the chunk's positions into the KV pool (the scheduler sized
      // the chunk to the blocks available this step).
      for (std::int64_t pos = chunk.begin; pos < chunk.end; ++pos) {
        auto slot = pool_.append_token(chunk.id);
        STOF_CHECK(slot.has_value(), "scheduler must size chunks to the pool");
        for (std::int64_t h = 0; h < heads; ++h) {
          std::memcpy(slot->k + h * d, &k.at(b * heads + h, pos, 0),
                      static_cast<std::size_t>(d) * sizeof(half));
          std::memcpy(slot->v + h * d, &v.at(b * heads + h, pos, 0),
                      static_cast<std::size_t>(d) * sizeof(half));
        }
      }
      s.cached_tokens = chunk.end;
      // Fold the chunk's prompt rows exactly once, in position order.  A
      // re-prefilled chunk (preempt mid-prefill, or a preempted decoder
      // rebuilding context past its prompt) recomputes rows already
      // folded; they are skipped, never re-folded.  The rows batch up for
      // one model-head pass; per-row purity of the head keeps chunked
      // digests byte-identical to whole prefills.
      const std::int64_t hd = heads * d;
      const std::int64_t fold_end =
          std::min(chunk.end, s.request.prompt_len);
      const std::int64_t fold_begin =
          std::max(chunk.begin, s.prompt_digested_tokens);
      const std::int64_t fold_n = fold_end - fold_begin;
      if (fold_n > 0) {
        std::vector<half> raw(static_cast<std::size_t>(fold_n * hd));
        for (std::int64_t j = 0; j < fold_n; ++j) {
          const std::int64_t pos = fold_begin + j;
          for (std::int64_t h = 0; h < heads; ++h) {
            std::memcpy(&raw[static_cast<std::size_t>(j * hd + h * d)],
                        out.data()
                            .subspan(static_cast<std::size_t>(
                                         ((b * heads + h) * seq + pos) * d),
                                     static_cast<std::size_t>(d))
                            .data(),
                        static_cast<std::size_t>(d) * sizeof(half));
          }
        }
        const TensorH folded = transform_for_digest(raw, fold_n);
        for (std::int64_t j = 0; j < fold_n; ++j) {
          const std::int64_t pos = fold_begin + j;
          const std::span<const half> raw_row{
              raw.data() + j * hd, static_cast<std::size_t>(hd)};
          const std::span<const half> dig_row =
              folded.data().empty()
                  ? raw_row
                  : folded.data().subspan(static_cast<std::size_t>(j * hd),
                                          static_cast<std::size_t>(hd));
          fold_output_row(s, pos, dig_row, raw_row);
          capture_template_digest(s, pos);
        }
      }
      s.prompt_digested_tokens = std::max(s.prompt_digested_tokens, fold_end);
      if (s.cached_tokens == s.total_len()) {
        STOF_CHECK(s.prompt_digested_tokens == s.request.prompt_len,
                   "prefix completion must have digested the whole prompt");
        maybe_publish_prefix(s);
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

void Engine::commit_decoded(SessionId id, std::int64_t committed,
                            StepOutcome& outcome) {
  Session& s = table_.at(id);
  const bool had_none = s.generated == 0;
  s.generated += committed;
  s.last_touch_step = step_count_;
  if (had_none && committed > 0) outcome.first_token.push_back(id);
  if (s.done()) {
    s.phase = SessionPhase::kFinished;
    pool_.release(id);
    outcome.finished.push_back(id);
  }
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
    for (std::int64_t j = 0; j < r.rows; ++j) {
      const std::uint64_t seed = j <= r.accept
                                     ? s.request.seed
                                     : (s.request.seed ^ kSpecDraftSalt);
      auto slot = pool_.append_token(id);
      STOF_CHECK(slot.has_value(),
                 "scheduler must reserve verify-round decode blocks");
      fill_token_local(seed, r.pos + j, TokenChannel::kKey,
                       {slot->k, static_cast<std::size_t>(heads * d)});
      fill_token_local(seed, r.pos + j, TokenChannel::kValue,
                       {slot->v, static_cast<std::size_t>(heads * d)});
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
  std::vector<std::int64_t> valid, seq_rows, draft_valid;
  valid.reserve(static_cast<std::size_t>(total_rows));
  seq_rows.reserve(rounds.size());
  std::int64_t row = 0;
  for (const auto& r : rounds) {
    Session& s = table_.at(r.id);
    // The packed path reads the pool's sidecar tier: only the rows appended
    // since the last refresh convert, everything older is already cached.
    const mha::KvSidecar sidecar =
        packed_execution_enabled() ? pool_.sidecar(r.id, config_.kv_precision)
                                   : mha::KvSidecar{};
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
      const auto& cols = cols_for(s.request.mask_kind, pos);
      seqs[static_cast<std::size_t>(row)] = mha::PagedSeq{
          pos + 1, config_.block_tokens, pool_.k_blocks(r.id),
          pool_.v_blocks(r.id), cols, sidecar};
      valid.push_back(static_cast<std::int64_t>(cols.size()));
      // The draft pass proposes row j's token from a sliding KV window.
      if (j >= 1) {
        draft_valid.push_back(std::min(pos, config_.spec_draft_window));
      }
    }
    seq_rows.push_back(r.rows);
  }

  const TensorH out = mha::decode_attention_paged(heads, d, seqs, q);
  double us = 0;
  if (!draft_valid.empty()) {
    const std::vector<std::int64_t> one_row_each(draft_valid.size(), 1);
    us += stream_.launch(
        "serve.spec.draft",
        mha::decode_verify_cost(config_.spec_draft_heads, d, draft_valid,
                                one_row_each, config_.device));
  }
  us += stream_.launch(
      "serve.decode",
      mha::decode_verify_cost(heads, d, valid, seq_rows, config_.device));

  // Every committed row enters one model-head batch, in row order;
  // rejected rows roll back and never fold.  A round's committed rows are
  // its leading ones, so with no rejected row (always, without drafts) the
  // batch is `out` itself, and otherwise a copy of each round's leading
  // run.  Committed rows are bit-identical to plain decode rows, and the
  // head is per-row pure, so speculative digests stay byte-identical to
  // non-speculative runs.
  const auto hd = static_cast<std::size_t>(heads * d);
  TensorH folded;
  if (committed == total_rows) {
    folded = transform_for_digest(out.data(), total_rows);
  } else if (model_digest_active()) {
    std::vector<half> raw;
    raw.reserve(static_cast<std::size_t>(committed) * hd);
    row = 0;
    for (const auto& r : rounds) {
      const auto lead =
          out.data().subspan(static_cast<std::size_t>(row) * hd,
                             static_cast<std::size_t>(r.accept + 1) * hd);
      raw.insert(raw.end(), lead.begin(), lead.end());
      row += r.rows;
    }
    folded = transform_for_digest(raw, committed);
  }

  std::int64_t drafted = 0, accepted = 0, rollbacks = 0;
  std::size_t fold_row = 0;  ///< committed-row index into `folded`
  row = 0;
  for (const auto& r : rounds) {
    Session& s = table_.at(r.id);
    const std::int64_t commit = r.accept + 1;
    for (std::int64_t j = 0; j < commit; ++j, ++fold_row) {
      const auto out_row =
          out.data().subspan(static_cast<std::size_t>(row + j) * hd, hd);
      const auto dig_row = folded.data().empty()
                               ? out_row
                               : folded.data().subspan(fold_row * hd, hd);
      fold_output_row(s, r.pos + j, dig_row, out_row);
    }
    row += r.rows;
    if (commit < r.rows) pool_.truncate(r.id, r.pos + commit);
    s.cached_tokens = r.pos + commit;
    commit_decoded(r.id, commit, outcome);
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
    ++stats_.finished;
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
