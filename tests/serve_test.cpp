// Serving runtime tests: KV pool mechanics, scheduler determinism, and the
// engine's central contract — per-session outputs are byte-identical
// between serial (batch-1 FIFO) and continuous-batching execution, with or
// without KV-pressure preemption.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "stof/core/kernels.hpp"
#include "stof/serve/engine.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {
namespace {

// ---- KvPool ---------------------------------------------------------------

TEST(KvPool, AppendAllocatesBlocksOnDemand) {
  KvPool pool(KvPoolConfig{4, 4, 2, 8});
  EXPECT_EQ(pool.free_blocks(), 4);
  for (int t = 0; t < 5; ++t) {
    EXPECT_TRUE(pool.append_token(7).has_value());
  }
  EXPECT_EQ(pool.tokens(7), 5);
  EXPECT_EQ(pool.blocks(7), 2);  // 5 tokens, 4 per block
  EXPECT_EQ(pool.free_blocks(), 2);
}

TEST(KvPool, ExhaustionFailsCleanlyAndReleaseRecycles) {
  KvPool pool(KvPoolConfig{2, 4, 1, 4});
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(pool.append_token(1).has_value());
  }
  EXPECT_EQ(pool.free_blocks(), 0);
  EXPECT_FALSE(pool.append_token(1).has_value());  // pool full
  EXPECT_FALSE(pool.append_token(2).has_value());  // new session too
  EXPECT_EQ(pool.tokens(2), 0);  // failed append left no state behind
  pool.release(1);
  EXPECT_EQ(pool.free_blocks(), 2);
  EXPECT_EQ(pool.tokens(1), 0);
  EXPECT_TRUE(pool.append_token(2).has_value());
  EXPECT_EQ(pool.peak_used_blocks(), 2);
}

TEST(KvPool, SlotsAreStableAndPerSession) {
  KvPool pool(KvPoolConfig{4, 2, 1, 2});
  auto a0 = pool.append_token(0);
  auto b0 = pool.append_token(1);
  ASSERT_TRUE(a0 && b0);
  a0->k[0] = 1.0f;
  b0->k[0] = 2.0f;
  // Growing session 1 must not disturb session 0's data.
  for (int t = 0; t < 5; ++t) ASSERT_TRUE(pool.append_token(1).has_value());
  EXPECT_EQ(pool.k_blocks(0)[0][0], 1.0f);
  EXPECT_EQ(pool.k_blocks(1)[0][0], 2.0f);
  EXPECT_EQ(pool.blocks(1), 3);
}

TEST(KvPool, BlocksForRoundsUp) {
  KvPool pool(KvPoolConfig{8, 16, 1, 8});
  EXPECT_EQ(pool.blocks_for(0), 0);
  EXPECT_EQ(pool.blocks_for(1), 1);
  EXPECT_EQ(pool.blocks_for(16), 1);
  EXPECT_EQ(pool.blocks_for(17), 2);
}

// ---- Engine: serial vs continuous byte-identity ---------------------------

EngineConfig small_config(SchedulerMode mode, std::int64_t kv_blocks) {
  EngineConfig cfg;
  cfg.heads = 2;
  cfg.head_size = 16;
  cfg.max_seq_len = 64;
  cfg.kv_blocks = kv_blocks;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = mode;
  cfg.scheduler.max_prefills_per_step = 4;
  cfg.scheduler.prefill_token_budget = 128;
  cfg.scheduler.max_decode_batch = 16;
  return cfg;
}

std::vector<Request> mixed_trace() {
  // Arrivals are packed tightly relative to the ~3.6us simulated step so
  // the engine stays saturated: requests overlap, batches form, and the
  // tight-pool variant actually contends for KV blocks.
  return {
      {0, 12, 6, 101, masks::PatternKind::kCausal, 0.0},
      {1, 20, 8, 102, masks::PatternKind::kSlidingWindow, 0.0},
      {2, 7, 5, 103, masks::PatternKind::kStrided, 10.0},
      {3, 30, 10, 104, masks::PatternKind::kCausal, 10.0},
      {4, 16, 4, 105, masks::PatternKind::kBigBird, 25.0},
      {5, 9, 7, 106, masks::PatternKind::kSlidingWindow, 40.0},
  };
}

/// Causal-only requests; even ids share a 40-token template (so a
/// prefix-sharing engine adopts pages), and the later arrivals come after
/// the donor's prefill has published its pages.
std::vector<Request> causal_template_trace() {
  std::vector<Request> out;
  const std::int64_t prompts[] = {45, 12, 70, 41, 93, 28, 57, 66};
  for (std::int64_t i = 0; i < 8; ++i) {
    Request r{static_cast<SessionId>(i), prompts[i], 4 + i % 5,
              static_cast<std::uint64_t>(300 + i), masks::PatternKind::kCausal,
              i == 0 ? 0.0 : 40.0 + 3.0 * static_cast<double>(i)};
    if (i % 2 == 0) {
      r.template_seed = 77;
      r.template_len = 40;
    }
    out.push_back(r);
  }
  return out;
}

/// Open-loop trace replay: submit arrivals as the sim clock reaches them.
void replay(Engine& engine, const std::vector<Request>& trace) {
  std::size_t next = 0;
  while (next < trace.size() || !engine.idle()) {
    while (next < trace.size() &&
           trace[next].arrival_us <= engine.sim_time_us()) {
      engine.submit(trace[next++]);
    }
    if (engine.idle()) {
      ASSERT_LT(next, trace.size());
      engine.advance_to(trace[next].arrival_us);
      continue;
    }
    engine.step();
  }
}

TEST(ServeEngine, SerialAndContinuousDigestsMatch) {
  const auto trace = mixed_trace();
  Engine serial(small_config(SchedulerMode::kSerial, 16));
  Engine continuous(small_config(SchedulerMode::kContinuous, 16));
  replay(serial, trace);
  replay(continuous, trace);

  for (const auto& r : trace) {
    const Session& a = serial.session(r.id);
    const Session& b = continuous.session(r.id);
    EXPECT_EQ(a.phase, SessionPhase::kFinished) << r.id;
    EXPECT_EQ(b.phase, SessionPhase::kFinished) << r.id;
    EXPECT_EQ(a.generated, r.max_new_tokens);
    EXPECT_EQ(a.digest, b.digest) << "session " << r.id;
  }
  // Continuous batching must also be strictly faster in simulated time.
  EXPECT_LT(continuous.sim_time_us(), serial.sim_time_us());
  EXPECT_LT(continuous.stats().steps, serial.stats().steps);
}

TEST(ServeEngine, PreemptionUnderKvPressureKeepsOutputsByteIdentical) {
  // Pool holds barely more than one max context: concurrent decoders must
  // fight for blocks, forcing LRU-idle eviction and full-context resume.
  const auto trace = mixed_trace();
  Engine serial(small_config(SchedulerMode::kSerial, 4));
  Engine tight(small_config(SchedulerMode::kContinuous, 4));
  replay(serial, trace);
  replay(tight, trace);

  EXPECT_GT(tight.stats().preemptions, 0) << "pool was not tight enough";
  for (const auto& r : trace) {
    EXPECT_EQ(serial.session(r.id).digest, tight.session(r.id).digest)
        << "session " << r.id;
    EXPECT_EQ(tight.session(r.id).phase, SessionPhase::kFinished);
  }
  EXPECT_EQ(serial.stats().preemptions, 0);  // serial never preempts
}

TEST(ServeEngine, RepeatedRunsAreFullyDeterministic) {
  const auto run = [] {
    telemetry::global_registry().reset();
    telemetry::ScopedTelemetry scoped(true);
    Engine engine(small_config(SchedulerMode::kContinuous, 8));
    const auto trace = mixed_trace();
    std::size_t next = 0;
    while (next < trace.size() || !engine.idle()) {
      while (next < trace.size() &&
             trace[next].arrival_us <= engine.sim_time_us()) {
        engine.submit(trace[next++]);
      }
      if (engine.idle()) {
        engine.advance_to(trace[next].arrival_us);
        continue;
      }
      engine.step();
    }
    // Timers are wall-clock and excluded; everything else must be stable.
    return std::pair{engine.sim_time_us(),
                     telemetry::dump_json({.include_timers = false})};
  };
  const auto [time_a, dump_a] = run();
  const auto [time_b, dump_b] = run();
  EXPECT_EQ(time_a, time_b);
  EXPECT_EQ(dump_a, dump_b);
  EXPECT_NE(dump_a.find("serve.steps"), std::string::npos);
  EXPECT_NE(dump_a.find("serve.decode.tokens"), std::string::npos);
  telemetry::global_registry().reset();
}

TEST(ServeEngine, LatencyTimestampsAreOrdered) {
  Engine engine(small_config(SchedulerMode::kContinuous, 16));
  const auto trace = mixed_trace();
  for (const auto& r : trace) {
    if (r.arrival_us == 0) engine.submit(r);
  }
  engine.run_until_drained();
  for (const auto& r : trace) {
    if (r.arrival_us != 0) continue;
    const Session& s = engine.session(r.id);
    EXPECT_GT(s.first_token_us, 0);
    EXPECT_GE(s.finish_us, s.first_token_us);
  }
}

TEST(ServeEngine, StepEventsDescribeBatchComposition) {
  Engine engine(small_config(SchedulerMode::kContinuous, 16));
  std::int64_t decode_tokens = 0;
  std::int64_t prefills = 0;
  engine.on_step = [&](const StepOutcome& ev, std::int64_t,
                       double duration_us, std::int64_t kv_used_blocks) {
    EXPECT_GT(duration_us, 0.0);
    EXPECT_LE(kv_used_blocks, 16);
    decode_tokens += static_cast<std::int64_t>(ev.decodes.size());
    prefills += static_cast<std::int64_t>(ev.prefills.size());
    // Whole-prefill mode: each window is its session's whole context.
    for (const auto& w : ev.prefills) {
      EXPECT_EQ(w.begin, 0);
      EXPECT_EQ(w.end, engine.session(w.id).request.prompt_len);
    }
  };
  engine.submit({0, 8, 4, 1, masks::PatternKind::kCausal, 0.0});
  engine.submit({1, 8, 4, 2, masks::PatternKind::kCausal, 0.0});
  engine.run_until_drained();
  EXPECT_EQ(decode_tokens, engine.stats().decode_tokens);
  EXPECT_EQ(prefills, 2);
  EXPECT_EQ(engine.stats().finished, 2);
}

TEST(ServeEngine, WholePrefillChargesOnlyTheTokensServed) {
  // Whole prefills run as [0, len) windows, so neither their kernel rows
  // nor their simulated cost may depend on the configured max_seq_len.
  // Causal masks keep the attended set independent of max_seq_len too.
  auto trace = mixed_trace();
  for (auto& r : trace) r.mask_kind = masks::PatternKind::kCausal;
  const auto prefill_us = [](const Engine& engine) {
    double us = 0;
    for (const auto& rec : engine.stream().records()) {
      if (rec.name == "serve.prefill") us += rec.time_us;
    }
    return us;
  };
  for (const auto mode : {SchedulerMode::kSerial, SchedulerMode::kContinuous}) {
    EngineConfig short_cfg = small_config(mode, 64);
    short_cfg.scheduler.prefill_token_budget = 1024;
    short_cfg.max_seq_len = 256;
    EngineConfig long_cfg = short_cfg;
    long_cfg.max_seq_len = 1024;
    Engine short_max(short_cfg);
    Engine long_max(long_cfg);
    replay(short_max, trace);
    replay(long_max, trace);
    EXPECT_GT(prefill_us(short_max), 0.0);
    EXPECT_EQ(prefill_us(short_max), prefill_us(long_max))
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(short_max.stats().prefill_chunks, 0);
    for (const auto& r : trace) {
      EXPECT_EQ(short_max.session(r.id).digest, long_max.session(r.id).digest)
          << "mode " << static_cast<int>(mode) << " session " << r.id;
    }
  }
}

// ---- Chunked prefill: bit-identity to one-shot prefills -------------------

EngineConfig chunked_config(std::int64_t kv_blocks, std::int64_t chunk) {
  EngineConfig cfg = small_config(SchedulerMode::kContinuous, kv_blocks);
  cfg.scheduler.chunk_tokens = chunk;
  return cfg;
}

TEST(ServeChunkedPrefill, ChunkSizeSweepKeepsDigestsBitIdentical) {
  // One token per step, the kernel block size, the longest prompt exactly,
  // and longest-prompt + 1: every boundary case must reproduce the serial
  // one-shot digests byte for byte (mixed_trace's longest prompt is 30).
  const auto trace = mixed_trace();
  Engine serial(small_config(SchedulerMode::kSerial, 16));
  replay(serial, trace);
  for (const std::int64_t chunk : {std::int64_t{1}, std::int64_t{16},
                                   std::int64_t{30}, std::int64_t{31}}) {
    Engine chunked(chunked_config(16, chunk));
    replay(chunked, trace);
    for (const auto& r : trace) {
      EXPECT_EQ(chunked.session(r.id).phase, SessionPhase::kFinished)
          << "chunk=" << chunk << " session " << r.id;
      EXPECT_EQ(serial.session(r.id).digest, chunked.session(r.id).digest)
          << "chunk=" << chunk << " session " << r.id;
    }
    if (chunk == 1) {
      // 1-token chunks must actually spread prefills across many steps.
      EXPECT_GT(chunked.stats().prefill_chunks, 20);
    }
  }
}

TEST(ServeChunkedPrefill, DigestsMatchOnEveryIsa) {
  // Chunked windows (rows [0, begin) come from the pool) and prefix
  // adoption give the same digests whichever kernel table runs, the scalar
  // one included.
  auto trace = causal_template_trace();
  for (Request r : mixed_trace()) {
    r.id += 8;
    trace.push_back(r);
  }
  std::ranges::stable_sort(trace, {}, &Request::arrival_us);
  EngineConfig cfg = chunked_config(64, 24);
  cfg.max_seq_len = 128;
  std::map<SessionId, std::uint64_t> want;
  for (const core::Isa isa : core::available_isas()) {
    core::ScopedKernelIsa pin(isa);
    Engine engine(cfg);
    replay(engine, trace);
    std::map<SessionId, std::uint64_t> got;
    for (const auto& r : trace) got[r.id] = engine.session(r.id).digest;
    if (want.empty()) want = got;
    EXPECT_EQ(want, got) << core::isa_name(isa);
  }
}

TEST(KvPool, StoredRowsAreWidenedFillTokenDraws) {
  // After every step, each K/V element the pool holds for a session is the
  // exact widening of a half value (float(half(x)) == x bitwise) and equals
  // the widened fill_token draw of its position — through chunked prefill,
  // prefix adoption with copy-on-write, speculative rounds that truncate
  // rejected drafts, preemption, and the release of finished sessions.
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  EngineConfig cfg = chunked_config(12, 24);
  cfg.max_seq_len = 128;
  cfg.spec_draft_tokens = 3;
  cfg.spec_accept_pct = 50;
  Engine engine(cfg);
  const auto trace = causal_template_trace();
  const auto row = static_cast<std::size_t>(cfg.heads * cfg.head_size);
  std::vector<half> draw(row);
  std::int64_t checked_rows = 0;
  engine.on_step = [&](const StepOutcome&, std::int64_t, double,
                       std::int64_t) {
    const KvPool& pool = engine.pool();
    for (const auto& r : trace) {
      const std::int64_t tokens = pool.tokens(r.id);
      if (tokens == 0) continue;  // not admitted yet, or released
      const Request& req = engine.session(r.id).request;
      for (std::int64_t pos = 0; pos < tokens; ++pos) {
        const auto page = static_cast<std::size_t>(pos / cfg.block_tokens);
        const auto offset =
            static_cast<std::size_t>(pos % cfg.block_tokens) * row;
        for (const auto channel : {TokenChannel::kKey, TokenChannel::kValue}) {
          fill_token(token_seed(req, pos), pos, channel, draw);
          const float* got = (channel == TokenChannel::kKey
                                  ? pool.k_blocks(r.id)
                                  : pool.v_blocks(r.id))[page] +
                             offset;
          for (std::size_t e = 0; e < row; ++e) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(float(half(got[e]))),
                      std::bit_cast<std::uint32_t>(got[e]))
                << "session " << r.id << " pos " << pos;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(float(draw[e])),
                      std::bit_cast<std::uint32_t>(got[e]))
                << "session " << r.id << " pos " << pos;
          }
        }
        ++checked_rows;
      }
    }
  };
  replay(engine, trace);
  const auto& reg = telemetry::global_registry();
  EXPECT_GT(checked_rows, 0);
  EXPECT_GT(reg.counter("serve.prefix.cow_copies"), 0);
  EXPECT_GT(reg.counter("serve.spec.rollbacks"), 0);
  EXPECT_GT(engine.stats().preemptions, 0);
  EXPECT_EQ(engine.stats().finished, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(engine.pool().used_blocks(), engine.pool().prefix_blocks());
}

TEST(ServeChunkedPrefill, InterleavesChunksWithDecodesInOneStep) {
  Engine engine(chunked_config(16, 8));
  bool interleaved = false;
  engine.on_step = [&](const StepOutcome& ev, std::int64_t, double,
                       std::int64_t) {
    if (!ev.prefills.empty() && !ev.decodes.empty()) interleaved = true;
    for (const auto& c : ev.prefills) EXPECT_LT(c.begin, c.end);
  };
  engine.submit({0, 8, 12, 1, masks::PatternKind::kCausal, 0.0});
  engine.submit({1, 40, 4, 2, masks::PatternKind::kCausal, 0.0});
  engine.run_until_drained();
  EXPECT_TRUE(interleaved)
      << "a long prompt's chunks must ride the same steps as live decodes";
  EXPECT_EQ(engine.stats().finished, 2);
}

TEST(ServeChunkedPrefill, PreemptMidPrefillRecomputesBitIdentically) {
  // r0 (priority 0, long prompt) starts prefilling in 32-token chunks; r1
  // (priority 5) then arrives and needs KV blocks r0 holds.  The scheduler
  // must evict r0 mid-prefill, and r0's re-prefill must recompute the
  // digest bit-identically (folding each prompt row exactly once).
  const Request r0{0, 40, 4, 201, masks::PatternKind::kCausal, 0.0,
                   /*tenant=*/0, /*priority=*/0};
  const Request r1{1, 30, 8, 202, masks::PatternKind::kCausal, 0.0,
                   /*tenant=*/0, /*priority=*/5};

  Engine serial(small_config(SchedulerMode::kSerial, 4));
  serial.submit(r0);
  serial.submit(r1);
  serial.run_until_drained();

  Engine chunked(chunked_config(4, 32));
  std::map<SessionId, std::int64_t> prefill_progress;
  bool mid_prefill_eviction = false;
  chunked.on_step = [&](const StepOutcome& ev, std::int64_t, double,
                        std::int64_t) {
    for (const auto id : ev.evicted) {
      const auto it = prefill_progress.find(id);
      if (it != prefill_progress.end() &&
          it->second < chunked.session(id).request.prompt_len) {
        mid_prefill_eviction = true;
      }
      prefill_progress[id] = 0;
    }
    for (const auto& c : ev.prefills) prefill_progress[c.id] = c.end;
  };
  chunked.submit(r0);
  chunked.step();  // r0's first chunk lands before r1 exists
  chunked.submit(r1);
  chunked.run_until_drained();

  EXPECT_TRUE(mid_prefill_eviction) << "r1 must preempt r0 mid-prefill";
  EXPECT_GE(chunked.session(0).preemptions, 1);
  EXPECT_EQ(serial.session(0).digest, chunked.session(0).digest);
  EXPECT_EQ(serial.session(1).digest, chunked.session(1).digest);
  EXPECT_EQ(chunked.stats().finished, 2);
}

// ---- Priorities, deadlines, fairness --------------------------------------

TEST(ServeScheduling, DeadlineMissesAreCounted) {
  Engine engine(chunked_config(16, 16));
  Request hopeless{0, 16, 8, 301, masks::PatternKind::kCausal, 0.0};
  hopeless.deadline_us = 0.5;  // unreachable: one step costs more
  Request relaxed{1, 16, 8, 302, masks::PatternKind::kCausal, 0.0};
  relaxed.deadline_us = 1e9;
  engine.submit(hopeless);
  engine.submit(relaxed);
  engine.run_until_drained();
  EXPECT_EQ(engine.stats().deadline_misses, 1);
}

TEST(ServeScheduling, AdmissionOrdersPriorityFirstThenDeadline) {
  // Capacity for one prefill in flight: admission order is observable as
  // first-chunk order.  Queue deliberately arrives worst-first.
  EngineConfig cfg = chunked_config(16, 16);
  cfg.scheduler.max_prefills_per_step = 1;
  Engine engine(cfg);
  std::vector<SessionId> first_chunk_order;
  engine.on_step = [&](const StepOutcome& ev, std::int64_t, double,
                       std::int64_t) {
    for (const auto& c : ev.prefills) {
      if (c.begin == 0) first_chunk_order.push_back(c.id);
    }
  };
  Request low{0, 16, 4, 401, masks::PatternKind::kCausal, 0.0};
  low.priority = 0;
  Request late_deadline{1, 16, 4, 402, masks::PatternKind::kCausal, 0.0};
  late_deadline.priority = 2;
  late_deadline.deadline_us = 5000;
  Request tight_deadline{2, 16, 4, 403, masks::PatternKind::kCausal, 0.0};
  tight_deadline.priority = 2;
  tight_deadline.deadline_us = 1000;
  engine.submit(low);
  engine.submit(late_deadline);
  engine.submit(tight_deadline);
  engine.run_until_drained();
  ASSERT_EQ(first_chunk_order.size(), 3u);
  EXPECT_EQ(first_chunk_order[0], 2);  // priority 2, earliest deadline
  EXPECT_EQ(first_chunk_order[1], 1);  // priority 2, later deadline
  EXPECT_EQ(first_chunk_order[2], 0);  // priority 0 last
}

TEST(ServeScheduling, FairnessShieldsMinorityTenantFromFlood) {
  // Tenant 0 floods the queue; tenant 1 submits two small requests behind
  // the flood.  Weighted DRR admission must pull tenant 1 forward, and the
  // per-session outputs must not depend on the fairness policy at all.
  std::vector<Request> trace;
  for (std::int64_t i = 0; i < 6; ++i) {
    trace.push_back({i, 24, 8, 500 + static_cast<std::uint64_t>(i),
                     masks::PatternKind::kCausal, 0.0, /*tenant=*/0});
  }
  for (std::int64_t i = 6; i < 8; ++i) {
    trace.push_back({i, 16, 8, 500 + static_cast<std::uint64_t>(i),
                     masks::PatternKind::kCausal, 0.0, /*tenant=*/1});
  }

  const auto mean_tenant1_finish = [&](Engine& engine) {
    double sum = 0;
    for (std::int64_t i = 6; i < 8; ++i) {
      sum += engine.session(i).finish_us;
    }
    return sum / 2.0;
  };

  EngineConfig fifo_cfg = chunked_config(16, 64);
  fifo_cfg.scheduler.max_prefills_per_step = 2;
  Engine fifo(fifo_cfg);
  for (const auto& r : trace) fifo.submit(r);
  fifo.run_until_drained();

  // Quantum 16 * weight 1 cannot cover a 32-token flood request every
  // step, while tenant 1's 4x weight covers its 24-token requests at once:
  // the accountant pulls tenant 1 past the flood.
  EngineConfig fair_cfg = fifo_cfg;
  fair_cfg.scheduler.fairness_quantum_tokens = 16;
  fair_cfg.scheduler.tenant_weights = {{0, 1}, {1, 4}};
  Engine fair(fair_cfg);
  for (const auto& r : trace) fair.submit(r);
  fair.run_until_drained();

  EXPECT_LT(mean_tenant1_finish(fair), mean_tenant1_finish(fifo))
      << "weighted DRR must improve the minority tenant's finish times";
  for (const auto& r : trace) {
    EXPECT_EQ(fifo.session(r.id).digest, fair.session(r.id).digest)
        << "fairness must never change outputs, only ordering";
  }
  EXPECT_EQ(fair.stats().finished, 8);
}

// ---- Scheduler planning invariants ----------------------------------------
//
// These drive Scheduler::plan_step directly against a hand-built
// table/pool and apply each plan with the same bookkeeping Engine::step
// performs (ingest prefill windows, decode one token per selected session,
// retire finished sessions) — no kernels, so single-step planner states
// (exact free-block counts, budget remainders) can be pinned.

struct PlannerHarness {
  SessionTable table;
  KvPool pool;
  Scheduler sched;
  std::int64_t step = 0;

  PlannerHarness(const SchedulerConfig& cfg, std::int64_t num_blocks,
                 std::int64_t block_tokens)
      : pool(KvPoolConfig{num_blocks, block_tokens, 1, 8}), sched(cfg) {}

  void submit(const Request& r) {
    table.submit(r);
    sched.enqueue(r.id);
  }

  [[nodiscard]] StepPlan plan() { return sched.plan_step(table, pool); }

  // Apply a plan the way the engine does, checking the invariants its
  // ingest path relies on: windows, whole or chunked, go only to
  // mid-prefill sessions resuming at their cached prefix, and evicted
  // sessions hold no KV.
  void apply(const StepPlan& plan) {
    for (const auto id : plan.evicted) {
      EXPECT_EQ(table.at(id).phase, SessionPhase::kQueued);
      EXPECT_EQ(pool.blocks(id), 0);
    }
    for (const auto& c : plan.prefills) {
      Session& s = table.at(c.id);
      EXPECT_EQ(s.phase, SessionPhase::kPrefilling)
          << "window granted to session " << c.id << " outside prefill";
      EXPECT_EQ(s.cached_tokens, c.begin);
      for (std::int64_t t = c.begin; t < c.end; ++t) {
        ASSERT_TRUE(pool.append_token(c.id).has_value());
      }
      s.cached_tokens = c.end;
      if (s.cached_tokens == s.total_len()) s.phase = SessionPhase::kDecoding;
      s.last_touch_step = step;
    }
    for (const auto id : plan.decodes) {
      Session& s = table.at(id);
      ASSERT_TRUE(pool.append_token(id).has_value());
      s.cached_tokens = s.total_len() + 1;
      ++s.generated;
      s.last_touch_step = step;
      if (s.done()) {
        s.phase = SessionPhase::kFinished;
        pool.release(id);
      }
    }
    ++step;
  }

  [[nodiscard]] bool drained() const {
    for (const auto& [id, s] : table) {
      if (s.phase != SessionPhase::kFinished) return false;
    }
    return true;
  }

  void run_until_drained(int max_steps) {
    for (int i = 0; i < max_steps && !drained(); ++i) {
      const StepPlan p = plan();
      ASSERT_FALSE(p.empty()) << "scheduler stalled with live sessions";
      apply(p);
    }
    EXPECT_TRUE(drained()) << "sessions did not drain in " << max_steps
                           << " steps";
  }
};

TEST(SchedulerPlan, MidStepPreemptionNeverGrantsChunksToEvictedSessions) {
  // Regression: the ongoing-prefill loop iterates a snapshot of the
  // chunking line, and an earlier (higher-priority) member's grant may
  // preempt a later member — mid-prefill residents are victims.  The
  // planner must then skip the evicted session: granting it a chunk would
  // hand KV blocks to a kQueued session that is simultaneously in
  // plan.evicted and the wait queue, hiding those blocks from
  // residents()/preemption.
  SchedulerConfig cfg;
  cfg.chunk_tokens = 16;
  PlannerHarness h(cfg, /*num_blocks=*/8, /*block_tokens=*/4);

  const Request c{0, 8, 20, 1, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/0, /*priority=*/0};
  const Request b{1, 28, 4, 2, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/0, /*priority=*/5};
  const Request d{2, 20, 4, 3, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/0, /*priority=*/3};

  h.submit(c);
  h.apply(h.plan());  // c prefills whole (8 <= 16) and starts decoding
  h.apply(h.plan());  // c decodes into a third block
  h.submit(b);
  h.apply(h.plan());  // b admitted: chunk [0,16)
  h.submit(d);
  // b continues KV-capped ([16,20), partial grant leaves budget); d's
  // admission preempts c (priority 0 < 3) for its first chunk [0,12).
  // Both b and d are now parked mid-prefill, b ahead of d in the line.
  StepPlan p = h.plan();
  ASSERT_EQ(p.evicted.size(), 1u);
  EXPECT_EQ(p.evicted[0], 0);
  ASSERT_EQ(p.prefills.size(), 2u);
  EXPECT_EQ(p.prefills[0].id, 1);
  EXPECT_EQ(p.prefills[1].id, 2);
  h.apply(p);
  ASSERT_EQ(h.pool.free_blocks(), 0);

  // The crucial step: b's continuation finds no free block and evicts d
  // (priority 3 < 5).  d is still in the iteration snapshot behind b and
  // must NOT be granted a chunk from its own freed blocks.
  p = h.plan();
  ASSERT_EQ(p.evicted.size(), 1u);
  EXPECT_EQ(p.evicted[0], 2);
  ASSERT_EQ(p.prefills.size(), 1u);
  EXPECT_EQ(p.prefills[0].id, 1);
  EXPECT_EQ(p.prefills[0].begin, 20);
  EXPECT_EQ(p.prefills[0].end, 28);
  EXPECT_EQ(h.table.at(2).phase, SessionPhase::kQueued);
  EXPECT_EQ(h.pool.blocks(2), 0);
  h.apply(p);

  // Everyone still drains, and every block comes back.
  h.run_until_drained(100);
  EXPECT_EQ(h.pool.free_blocks(), 8);
}

TEST(SchedulerPlan, WithdrawnChunkRefundsStepBudget) {
  // Regression: when a priority preemption withdraws a victim's
  // already-granted chunk from the plan, its tokens must return to the
  // step budget (and its blocks to the reservation count) — otherwise the
  // step under-packs versus the configured chunk_tokens.
  SchedulerConfig cfg;
  cfg.chunk_tokens = 16;
  PlannerHarness h(cfg, /*num_blocks=*/6, /*block_tokens=*/4);

  const Request a{0, 20, 4, 1, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/0, /*priority=*/0};
  const Request b{1, 20, 4, 2, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/0, /*priority=*/5};

  h.submit(a);
  h.apply(h.plan());  // a admitted: chunk [0,16), 4 of 6 blocks held
  h.submit(b);
  // a's continuation [16,20) is granted first (4 tokens); b's admission
  // then evicts a, withdrawing that chunk.  With the refund, b's first
  // chunk gets the full 16-token budget — not 16 - 4.
  const StepPlan p = h.plan();
  ASSERT_EQ(p.evicted.size(), 1u);
  EXPECT_EQ(p.evicted[0], 0);
  ASSERT_EQ(p.prefills.size(), 1u);
  EXPECT_EQ(p.prefills[0].id, 1);
  EXPECT_EQ(p.prefills[0].tokens(), 16)
      << "withdrawn chunk's tokens were not refunded to the step budget";
  h.apply(p);
  h.run_until_drained(100);
  EXPECT_EQ(h.pool.free_blocks(), 6);
}

TEST(SchedulerPlan, TenantChargedOncePerSessionAcrossPreemption) {
  // Regression: the WDRR accountant must charge a session's target length
  // to its tenant exactly once.  Re-admission after a preemption — the
  // scheduler's choice, not the tenant's — must neither charge nor
  // deficit-gate again.
  SchedulerConfig cfg;
  cfg.chunk_tokens = 16;
  cfg.fairness_quantum_tokens = 100;
  PlannerHarness h(cfg, /*num_blocks=*/6, /*block_tokens=*/4);

  const Request a{0, 16, 8, 1, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/0, /*priority=*/0};  // target_len 24
  const Request b{1, 20, 1, 2, masks::PatternKind::kCausal, 0.0,
                  /*tenant=*/1, /*priority=*/5};  // target_len 21

  h.submit(a);
  h.apply(h.plan());  // top-up to 100, admit a, charge 24
  EXPECT_EQ(h.sched.tenant_deficit(0), 76);

  h.submit(b);
  // b preempts a (now decoding) for its first chunk's blocks; tenant 0's
  // account is untouched by the eviction.
  StepPlan p = h.plan();
  ASSERT_EQ(p.evicted.size(), 1u);
  EXPECT_EQ(p.evicted[0], 0);
  h.apply(p);
  EXPECT_EQ(h.sched.tenant_deficit(0), 76);

  // a waits (earning 100/step) while b finishes, then is re-admitted.
  std::int64_t readmit_step = -1;
  for (int i = 0; i < 10 && readmit_step < 0; ++i) {
    p = h.plan();
    for (const auto& c : p.prefills) {
      if (c.id == 0) readmit_step = h.step;
    }
    h.apply(p);
  }
  ASSERT_GE(readmit_step, 0) << "preempted session was never re-admitted";
  // Top-ups since the first admission accrued; the target length was NOT
  // charged a second time (buggy accounting would read 24 lower).
  EXPECT_EQ(h.sched.tenant_deficit(0), 76 + 100 * (readmit_step - 1));
  h.run_until_drained(100);
}

TEST(SchedulerPlan, WholePrefillAdmitsInPriorityOrder) {
  // Whole-prefill mode with a token budget for exactly one context: the
  // later, higher-priority arrival takes the step's only whole window.
  SchedulerConfig cfg;
  cfg.prefill_token_budget = 16;
  PlannerHarness h(cfg, /*num_blocks=*/16, /*block_tokens=*/4);

  const Request low{0, 16, 4, 1, masks::PatternKind::kCausal, 0.0,
                    /*tenant=*/0, /*priority=*/0};
  const Request high{1, 16, 4, 2, masks::PatternKind::kCausal, 0.0,
                     /*tenant=*/0, /*priority=*/5};
  h.submit(low);
  h.submit(high);
  const StepPlan p = h.plan();
  ASSERT_EQ(p.prefills.size(), 1u);
  EXPECT_EQ(p.prefills[0].id, 1);
  EXPECT_EQ(p.prefills[0].begin, 0);
  EXPECT_EQ(p.prefills[0].end, 16);
  EXPECT_EQ(h.table.at(0).phase, SessionPhase::kQueued);
  h.apply(p);
  EXPECT_EQ(h.table.at(1).phase, SessionPhase::kDecoding)
      << "a whole prefill leaves kPrefilling in its admission step";
  h.run_until_drained(100);
  EXPECT_EQ(h.pool.free_blocks(), 16);
}

TEST(SchedulerPlan, WholePrefillDefersTenantThatCannotAfford) {
  // Whole-prefill mode honours WDRR: one quantum (8 tokens) cannot cover
  // tenant 0's 24-token session, so it waits while tenant 1's 8-token
  // session passes it.
  telemetry::ScopedTelemetry scoped(true);
  telemetry::global_registry().reset();
  SchedulerConfig cfg;
  cfg.fairness_quantum_tokens = 8;
  PlannerHarness h(cfg, /*num_blocks=*/16, /*block_tokens=*/4);

  const Request big{0, 16, 8, 1, masks::PatternKind::kCausal, 0.0,
                    /*tenant=*/0};  // target_len 24
  const Request small{1, 4, 4, 2, masks::PatternKind::kCausal, 0.0,
                      /*tenant=*/1};  // target_len 8
  h.submit(big);
  h.submit(small);
  const StepPlan p = h.plan();
  ASSERT_EQ(p.prefills.size(), 1u);
  EXPECT_EQ(p.prefills[0].id, 1);
  EXPECT_EQ(p.prefills[0].end, 4);
  EXPECT_EQ(h.table.at(0).phase, SessionPhase::kQueued);
  EXPECT_EQ(
      telemetry::global_registry().counter("serve.sched.deficit_deferrals"),
      1);
  h.apply(p);
  h.run_until_drained(100);
  EXPECT_EQ(h.pool.free_blocks(), 16);
  telemetry::global_registry().reset();
}

TEST(SchedulerPlan, WholePrefillNeverGrantsPartialWindow) {
  // KV for only part of the head's context: whole-prefill mode grants no
  // partial window, and the blocked head keeps a smaller request that
  // would fit from overtaking it.
  SchedulerConfig cfg;
  PlannerHarness h(cfg, /*num_blocks=*/4, /*block_tokens=*/4);

  h.submit({0, 8, 4, 1, masks::PatternKind::kCausal, 0.0});
  h.apply(h.plan());  // 2 of 4 blocks held, decoding
  h.submit({1, 12, 2, 2, masks::PatternKind::kCausal, 0.0});  // 3 blocks
  h.submit({2, 2, 2, 3, masks::PatternKind::kCausal, 0.0});   // 1 block
  // The decoder's next token reserves a third block; one is left, so the
  // head could take a 4-token slice but not its 12-token window.
  const StepPlan p = h.plan();
  EXPECT_TRUE(p.prefills.empty());
  EXPECT_TRUE(p.evicted.empty());
  ASSERT_EQ(p.decodes.size(), 1u);
  EXPECT_EQ(h.table.at(1).phase, SessionPhase::kQueued);
  EXPECT_EQ(h.table.at(2).phase, SessionPhase::kQueued);
  h.apply(p);

  for (int i = 0; i < 100 && !h.drained(); ++i) {
    const StepPlan q = h.plan();
    ASSERT_FALSE(q.empty());
    for (const auto& w : q.prefills) {
      EXPECT_EQ(w.begin, h.table.at(w.id).cached_tokens);
      EXPECT_EQ(w.end, h.table.at(w.id).total_len()) << "partial window";
    }
    h.apply(q);
  }
  EXPECT_TRUE(h.drained());
  EXPECT_EQ(h.pool.free_blocks(), 4);
}

TEST(ServeScheduling, SameTemplateArrivalsInOneStepPrefillItOnce) {
  // Two requests naming one 40-token template arrive together and both fit
  // one step's budget.  The second waits for the first's publish and
  // adopts its pages instead of computing the template a second time; the
  // digests equal a run with sharing off.
  std::vector<Request> trace;
  for (const SessionId id : {0, 1}) {
    Request r{id, 52 + 8 * id, 4, static_cast<std::uint64_t>(500 + id),
              masks::PatternKind::kCausal, 0.0};
    r.template_seed = 91;
    r.template_len = 40;
    trace.push_back(r);
  }
  telemetry::ScopedTelemetry on(true);
  std::map<SessionId, std::uint64_t> digests[2];
  std::int64_t prefill_tokens[2] = {0, 0};
  std::int64_t deferrals[2] = {0, 0};
  for (const bool sharing : {false, true}) {
    telemetry::global_registry().reset();
    EngineConfig cfg = small_config(SchedulerMode::kContinuous, 16);
    cfg.scheduler.prefix_sharing = sharing;
    Engine engine(cfg);
    replay(engine, trace);
    for (const auto& r : trace) {
      ASSERT_EQ(engine.session(r.id).phase, SessionPhase::kFinished);
      digests[sharing][r.id] = engine.session(r.id).digest;
    }
    prefill_tokens[sharing] = engine.stats().prefill_tokens;
    deferrals[sharing] = telemetry::global_registry().counter(
        "serve.sched.prefix_deferrals");
  }
  telemetry::global_registry().reset();
  EXPECT_EQ(prefill_tokens[0], 52 + 60);
  EXPECT_EQ(prefill_tokens[1], 40 + (52 - 40) + (60 - 40))
      << "the template was prefilled more than once";
  EXPECT_EQ(deferrals[0], 0);
  EXPECT_GE(deferrals[1], 1);
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(ServeEngine, RejectsOversizedRequests) {
  Engine engine(small_config(SchedulerMode::kContinuous, 16));
  EXPECT_THROW(
      engine.submit({0, 60, 10, 1, masks::PatternKind::kCausal, 0.0}),
      Error);  // 70 > max_seq_len 64
  EXPECT_THROW(engine.submit({1, 0, 4, 1, masks::PatternKind::kCausal, 0.0}),
               Error);
}

TEST(ServeEngine, ConfigValidatesPagedDecodeContract) {
  EngineConfig cfg = small_config(SchedulerMode::kContinuous, 16);
  cfg.block_tokens = 32;  // != prefill BLOCK_N (16)
  EXPECT_THROW(Engine{cfg}, Error);
  EngineConfig tiny = small_config(SchedulerMode::kContinuous, 2);
  EXPECT_THROW(Engine{tiny}, Error);  // pool smaller than one context
}

// ---- Padding independence --------------------------------------------------

TEST(ServePadding, DigestsAndSimTimeIgnoreMaxSeqLen) {
  // Prefill reads K/V from the pool and stages only the window's rows, so
  // nothing it computes or charges depends on the padded length: each of
  // the three ways of serving the trace (whole prefills, 24-token chunks,
  // prefix sharing) gives the same digests and simulated time at
  // max_seq_len 256 and 2048, and the digests agree across the three.
  const auto trace = causal_template_trace();
  enum class Way { kWhole, kChunked, kShared };
  std::map<SessionId, std::uint64_t> reference;
  for (const Way way : {Way::kWhole, Way::kChunked, Way::kShared}) {
    std::map<SessionId, std::uint64_t> digests[2];
    double sim_us[2] = {0, 0};
    std::int64_t adopted = 0;
    for (int i = 0; i < 2; ++i) {
      EngineConfig cfg = small_config(SchedulerMode::kContinuous, 128);
      cfg.max_seq_len = i == 0 ? 256 : 2048;
      cfg.scheduler.prefill_token_budget = 2048;
      cfg.scheduler.chunk_tokens = way == Way::kChunked ? 24 : 0;
      cfg.scheduler.prefix_sharing = way == Way::kShared;
      Engine engine(cfg);
      replay(engine, trace);
      for (const auto& r : trace) {
        ASSERT_EQ(engine.session(r.id).phase, SessionPhase::kFinished);
        digests[i][r.id] = engine.session(r.id).digest;
        adopted += engine.session(r.id).adopted_tokens;
      }
      sim_us[i] = engine.sim_time_us();
    }
    const int w = static_cast<int>(way);
    EXPECT_EQ(digests[0], digests[1]) << "way " << w;
    EXPECT_EQ(sim_us[0], sim_us[1]) << "way " << w;
    EXPECT_EQ(adopted > 0, way == Way::kShared) << "way " << w;
    if (way == Way::kWhole) reference = digests[0];
    EXPECT_EQ(reference, digests[0]) << "way " << w;
  }
}

}  // namespace
}  // namespace stof::serve
