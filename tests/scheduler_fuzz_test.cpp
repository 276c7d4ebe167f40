// Scheduler property/fuzz tests: seeded adversarial arrival traces driven
// through the serving engine in serial, continuous, and chunked-prefill
// modes, with invariants checked after every step.
//
// Trace shape (all seeded, fully deterministic): bursty arrivals (Poisson
// background plus clustered bursts), heavy-tail prompt lengths, mixed mask
// kinds, 2-4 tenants with distinct weights, random priorities, and sparse
// deadlines.  Invariants:
//   * KV accounting — the pool's used blocks always equal the sum of the
//     resident sessions' block counts, and a retired (finished or queued)
//     session holds zero blocks: no page leaks, ever.
//   * Bounded starvation — every trace drains within a generous step
//     bound and every session finishes.
//   * Digest equality — per-session output digests are bit-identical
//     across serial / continuous / chunked scheduling, prefix sharing on
//     and off, and speculative decoding on and off.
//   * Deterministic replay — the same seed reproduces a byte-identical
//     telemetry dump.
//   * Idle accounting — Engine::idle() agrees with a phase scan of the
//     session table before and after every step.
//
// Shared-prefix traces overlay hot templates (radix-tree hits, partial-
// page adoption, CoW, refcounted release) on the same adversarial
// arrival shape; pool().check_conservation() audits block refcounts and
// the free list after every step.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "stof/core/rng.hpp"
#include "stof/serve/engine.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {
namespace {

constexpr std::int64_t kMaxSeq = 64;

std::vector<Request> fuzz_trace(std::uint64_t seed, std::int64_t n_requests) {
  Rng rng(seed);
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kCausal, masks::PatternKind::kSlidingWindow,
      masks::PatternKind::kStrided, masks::PatternKind::kBigBird};
  const auto n_tenants =
      2 + static_cast<std::int32_t>(rng.next_u64() % 3);  // 2..4
  std::vector<Request> trace;
  double clock = 0;
  for (std::int64_t i = 0; i < n_requests; ++i) {
    // Bursty arrivals: 1-in-4 requests arrive in a zero-gap burst with the
    // previous one; the rest space out by a few simulated steps.
    if (rng.next_double() > 0.25) clock += 2.0 + 30.0 * rng.next_double();
    Request r;
    r.id = i;
    // Heavy-tail prompts: mostly short, occasionally near the context cap
    // (cubing a uniform draw puts ~88% of mass below a third of the max).
    const double u = rng.next_double();
    r.prompt_len = 1 + static_cast<std::int64_t>(u * u * u * (kMaxSeq - 14));
    r.max_new_tokens = 1 + static_cast<std::int64_t>(rng.next_u64() % 12);
    r.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    r.mask_kind = kinds[rng.next_u64() % 4];
    r.arrival_us = clock;
    r.tenant = static_cast<std::int32_t>(rng.next_u64() %
                                         static_cast<std::uint64_t>(n_tenants));
    r.priority = static_cast<std::int32_t>(rng.next_u64() % 4);
    if (rng.next_double() < 0.3) {
      r.deadline_us = clock + 50.0 + 400.0 * rng.next_double();
    }
    trace.push_back(r);
  }
  return trace;
}

/// fuzz_trace with hot prompt templates overlaid: ~3/4 of the requests
/// share one of three templates (template_len 8..31, so chains cover a
/// partial page and often a full one), the rest stay fully private.
std::vector<Request> prefix_fuzz_trace(std::uint64_t seed,
                                       std::int64_t n_requests) {
  auto trace = fuzz_trace(seed, n_requests);
  Rng rng(seed ^ 0xfeedbeefULL);
  for (auto& r : trace) {
    if (rng.next_double() < 0.25) continue;
    r.template_seed = seed * 77 + 1 + rng.next_u64() % 3;
    r.template_len = 8 + static_cast<std::int64_t>(rng.next_u64() % 24);
    // The template must leave a private suffix, and the grown prompt must
    // still fit the context window (max_new_tokens <= 12 here).
    r.prompt_len = std::max(r.prompt_len, r.template_len + 1);
  }
  return trace;
}

EngineConfig fuzz_config(SchedulerMode mode, std::int64_t chunk_tokens,
                         std::int64_t kv_blocks) {
  EngineConfig cfg;
  cfg.heads = 2;
  cfg.head_size = 16;
  cfg.max_seq_len = kMaxSeq;
  cfg.kv_blocks = kv_blocks;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = mode;
  cfg.scheduler.max_prefills_per_step = 4;
  cfg.scheduler.prefill_token_budget = 128;
  cfg.scheduler.max_decode_batch = 16;
  cfg.scheduler.chunk_tokens = chunk_tokens;
  cfg.scheduler.fairness_quantum_tokens = 24;
  cfg.scheduler.tenant_weights = {{0, 1}, {1, 2}, {2, 1}, {3, 3}};
  return cfg;
}

/// Replay `trace` open-loop, asserting the per-step KV and liveness
/// invariants.  Returns the per-session digests.  `shared` relaxes the
/// used == sum-of-session-blocks identity (shared pages are mapped by
/// several owners and the radix tree holds pages no session maps); the
/// pool's refcount audit is the conservation invariant in both regimes.
std::map<SessionId, std::uint64_t> replay_checked(
    Engine& engine, const std::vector<Request>& trace, bool shared = false) {
  std::vector<SessionId> submitted;
  engine.on_step = [&](const StepOutcome& ev, std::int64_t step, double,
                       std::int64_t kv_used_blocks) {
    // KV conservation: block refcounts equal their owners (sessions plus
    // tree nodes), the free list is exactly the unreferenced blocks, and
    // retired sessions hold nothing.
    EXPECT_TRUE(engine.pool().check_conservation()) << "KV refcount audit";
    std::int64_t held = 0;
    for (const auto id : submitted) {
      const auto blocks = engine.pool().blocks(id);
      held += blocks;
      const auto phase = engine.session(id).phase;
      if (phase == SessionPhase::kFinished || phase == SessionPhase::kQueued) {
        EXPECT_EQ(blocks, 0) << "retired session " << id << " leaks KV";
      }
    }
    if (!shared) {
      EXPECT_EQ(held, engine.pool().used_blocks()) << "KV pool leak";
    }
    EXPECT_LE(kv_used_blocks, engine.pool().total_blocks());
    // A non-empty plan must do real work: evictions alone make no forward
    // progress and would spin the engine forever.
    EXPECT_TRUE(!ev.prefills.empty() || !ev.decodes.empty())
        << "step " << step << " planned only evictions";
    for (const auto& w : ev.prefills) {
      EXPECT_LT(w.begin, w.end);
      EXPECT_LE(w.end, engine.session(w.id).request.target_len());
      // Whole prefills are atomic grants of the whole context.
      if (!engine.config().scheduler.chunked()) {
        EXPECT_EQ(w.end, engine.session(w.id).total_len());
      }
    }
  };

  // Bounded starvation: a generous ceiling on total steps — every token
  // costs at least one step slot, but preemption thrash could in principle
  // loop forever; this bound is the liveness assertion.
  std::int64_t total_tokens = 0;
  for (const auto& r : trace) total_tokens += r.target_len();
  const std::int64_t max_steps = 40 * total_tokens + 1000;

  // idle() answers from counts kept where phases change; it must agree
  // with a scan of the whole session table (queued sessions are exactly
  // the scheduler's wait queue).
  const auto scan_idle = [&] {
    const SessionTable& t = engine.sessions();
    return t.ids_in_phase(SessionPhase::kQueued).empty() &&
           t.ids_in_phase(SessionPhase::kPrefilling).empty() &&
           t.ids_in_phase(SessionPhase::kDecoding).empty();
  };

  std::size_t next = 0;
  std::int64_t steps = 0;
  while (next < trace.size() || !engine.idle()) {
    while (next < trace.size() &&
           trace[next].arrival_us <= engine.sim_time_us()) {
      submitted.push_back(trace[next].id);
      engine.submit(trace[next++]);
    }
    EXPECT_EQ(engine.idle(), scan_idle()) << "after submitting, step " << steps;
    if (engine.idle()) {
      EXPECT_LT(next, trace.size());
      if (next >= trace.size()) break;
      engine.advance_to(trace[next].arrival_us);
      continue;
    }
    EXPECT_TRUE(engine.step());
    EXPECT_EQ(engine.idle(), scan_idle()) << "after step " << steps;
    EXPECT_LT(++steps, max_steps) << "starvation: trace failed to drain";
    if (steps >= max_steps) break;
  }

  std::map<SessionId, std::uint64_t> digests;
  for (const auto& r : trace) {
    const Session& s = engine.session(r.id);
    EXPECT_EQ(s.phase, SessionPhase::kFinished) << "session " << r.id;
    EXPECT_EQ(s.generated, r.max_new_tokens) << "session " << r.id;
    digests[r.id] = s.digest;
  }
  return digests;
}

TEST(SchedulerFuzz, DigestsMatchAcrossSerialContinuousChunkedModes) {
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
    const auto trace = fuzz_trace(seed, 24);
    // Serial needs room for one full context; the batched modes run with a
    // tight pool so preemption and chunk-shrinking actually fire.
    Engine serial(fuzz_config(SchedulerMode::kSerial, 0, 8));
    Engine continuous(fuzz_config(SchedulerMode::kContinuous, 0, 8));
    Engine chunked(fuzz_config(SchedulerMode::kContinuous, 24, 8));
    const auto serial_digests = replay_checked(serial, trace);
    const auto continuous_digests = replay_checked(continuous, trace);
    const auto chunked_digests = replay_checked(chunked, trace);
    EXPECT_EQ(serial_digests, continuous_digests) << "seed " << seed;
    EXPECT_EQ(serial_digests, chunked_digests) << "seed " << seed;
  }
}

TEST(SchedulerFuzz, SixteenTokenChunksMatchSerial) {
  const auto trace = fuzz_trace(71, 16);
  Engine serial(fuzz_config(SchedulerMode::kSerial, 0, 8));
  Engine chunked(fuzz_config(SchedulerMode::kContinuous, 16, 8));
  EXPECT_EQ(replay_checked(serial, trace), replay_checked(chunked, trace));
}

TEST(SchedulerFuzz, TightPoolForcesPreemptionWithoutDivergence) {
  // The smallest legal pool (one max context) under a hostile trace: the
  // run must preempt, and still match serial byte for byte — chunked, and
  // with atomic whole-context grants.
  const auto trace = fuzz_trace(101, 20);
  Engine serial(fuzz_config(SchedulerMode::kSerial, 0, 4));
  Engine tight(fuzz_config(SchedulerMode::kContinuous, 16, 4));
  Engine whole(fuzz_config(SchedulerMode::kContinuous, 0, 4));
  const auto serial_digests = replay_checked(serial, trace);
  EXPECT_EQ(serial_digests, replay_checked(tight, trace));
  EXPECT_GT(tight.stats().preemptions, 0) << "pool was not tight enough";
  EXPECT_EQ(serial_digests, replay_checked(whole, trace));
  EXPECT_GT(whole.stats().preemptions, 0) << "pool was not tight enough";
  EXPECT_EQ(whole.stats().prefill_chunks, 0);
}

TEST(SchedulerFuzz, SharedPrefixDigestsMatchAcrossModesAndSharing) {
  // Sharing-off serial is the ground truth: adopted pages and mid-stream
  // digest seeding must reproduce exactly what a from-scratch prefill of
  // every prompt computes, across both batched modes.
  for (const std::uint64_t seed : {13ull, 29ull}) {
    const auto trace = prefix_fuzz_trace(seed, 24);
    EngineConfig off_cfg = fuzz_config(SchedulerMode::kSerial, 0, 8);
    off_cfg.scheduler.prefix_sharing = false;
    Engine serial_off(off_cfg);
    Engine continuous(fuzz_config(SchedulerMode::kContinuous, 0, 8));
    Engine chunked(fuzz_config(SchedulerMode::kContinuous, 24, 8));
    const auto base = replay_checked(serial_off, trace);

    telemetry::ScopedTelemetry scoped(true);
    telemetry::global_registry().reset();
    EXPECT_EQ(base, replay_checked(continuous, trace, /*shared=*/true))
        << "seed " << seed;
    EXPECT_GT(telemetry::global_registry().counter("serve.prefix.hits"), 0)
        << "trace never exercised adoption, seed " << seed;
    EXPECT_EQ(base, replay_checked(chunked, trace, /*shared=*/true))
        << "seed " << seed;
    telemetry::global_registry().reset();
  }
}

TEST(SchedulerFuzz, SharedPrefixSurvivesTightPoolEviction) {
  // One-max-context pool: admission must reclaim tree-only pages and evict
  // residents (freeing only their private pages) without diverging.
  const auto trace = prefix_fuzz_trace(101, 20);
  EngineConfig off_cfg = fuzz_config(SchedulerMode::kSerial, 0, 4);
  off_cfg.scheduler.prefix_sharing = false;
  Engine serial_off(off_cfg);
  Engine tight(fuzz_config(SchedulerMode::kContinuous, 16, 4));
  const auto base = replay_checked(serial_off, trace);
  EXPECT_EQ(base, replay_checked(tight, trace, /*shared=*/true));
}

TEST(SchedulerFuzz, SharedPrefixChunkedMatchesSerialOnAThirdSeed) {
  const auto trace = prefix_fuzz_trace(43, 20);
  EngineConfig off_cfg = fuzz_config(SchedulerMode::kSerial, 0, 8);
  off_cfg.scheduler.prefix_sharing = false;
  Engine serial_off(off_cfg);
  Engine chunked_on(fuzz_config(SchedulerMode::kContinuous, 24, 8));
  EXPECT_EQ(replay_checked(serial_off, trace),
            replay_checked(chunked_on, trace, /*shared=*/true));
}

TEST(SchedulerFuzz, SpeculativeDecodeMatchesSequentialDecode) {
  // Draft-and-verify must commit exactly the sequential decode's tokens:
  // rejected rows roll back, accepted rows fold in order.
  const auto trace = fuzz_trace(47, 16);
  Engine plain(fuzz_config(SchedulerMode::kSerial, 0, 8));
  EngineConfig spec_cfg = fuzz_config(SchedulerMode::kContinuous, 0, 8);
  spec_cfg.spec_draft_tokens = 3;
  spec_cfg.spec_accept_pct = 75;
  EngineConfig spec_chunked_cfg = fuzz_config(SchedulerMode::kContinuous, 24, 8);
  spec_chunked_cfg.spec_draft_tokens = 3;
  spec_chunked_cfg.spec_accept_pct = 75;
  Engine spec(spec_cfg);
  Engine spec_chunked(spec_chunked_cfg);
  const auto base = replay_checked(plain, trace);

  telemetry::ScopedTelemetry scoped(true);
  telemetry::global_registry().reset();
  EXPECT_EQ(base, replay_checked(spec, trace));
  const auto drafted =
      telemetry::global_registry().counter("serve.spec.drafted");
  const auto accepted =
      telemetry::global_registry().counter("serve.spec.accepted");
  const auto rollbacks =
      telemetry::global_registry().counter("serve.spec.rollbacks");
  EXPECT_GT(drafted, 0);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rollbacks, 0) << "acceptance 75% must reject sometimes";
  EXPECT_EQ(base, replay_checked(spec_chunked, trace));
  telemetry::global_registry().reset();
}

TEST(SchedulerFuzz, SpeculativeSharedPrefixMatches) {
  // The full stack at once: chunked prefill, prefix adoption with CoW, and
  // speculative rollback in one engine vs the plain serial baseline.
  const auto trace = prefix_fuzz_trace(59, 20);
  EngineConfig off_cfg = fuzz_config(SchedulerMode::kSerial, 0, 8);
  off_cfg.scheduler.prefix_sharing = false;
  EngineConfig full_cfg = fuzz_config(SchedulerMode::kContinuous, 24, 8);
  full_cfg.spec_draft_tokens = 3;
  full_cfg.spec_accept_pct = 80;
  Engine serial_off(off_cfg);
  Engine full(full_cfg);
  EXPECT_EQ(replay_checked(serial_off, trace),
            replay_checked(full, trace, /*shared=*/true));
}

TEST(SchedulerFuzz, SameSeedReplaysByteIdenticalTelemetry) {
  const auto run = [] {
    telemetry::global_registry().reset();
    telemetry::ScopedTelemetry scoped(true);
    Engine engine(fuzz_config(SchedulerMode::kContinuous, 24, 8));
    const auto trace = fuzz_trace(5, 24);
    replay_checked(engine, trace);
    return telemetry::dump_json({.include_timers = false});
  };
  const auto dump_a = run();
  const auto dump_b = run();
  EXPECT_EQ(dump_a, dump_b);
  EXPECT_NE(dump_a.find("serve.sched.chunks_emitted"), std::string::npos);
  EXPECT_NE(dump_a.find("serve.sched.tenant_deficit"), std::string::npos);
  telemetry::global_registry().reset();
}

}  // namespace
}  // namespace stof::serve
