// Model-execution serving tests: with a ModelSpec configured the engine
// runs every step's rows through the fused transformer-layer stack, and
// the central contract extends — per-session digests are byte-identical
// across fused vs launch-per-op timelines, serial vs continuous
// scheduling, chunked prefill, preemption/recompute, speculative decoding,
// and tensor-parallel cluster execution, while the fused timeline is
// strictly faster.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "stof/cluster/cluster.hpp"
#include "stof/core/checksum.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/rng.hpp"
#include "stof/serve/engine.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {
namespace {

EngineConfig model_config(ModelKind kind, SchedulerMode mode,
                          std::int64_t kv_blocks, bool fused) {
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
  cfg.model.kind = kind;
  cfg.model.layers = 2;
  cfg.model.fused = fused;
  return cfg;
}

std::vector<Request> mixed_trace() {
  return {
      {0, 12, 6, 101, masks::PatternKind::kCausal, 0.0},
      {1, 20, 8, 102, masks::PatternKind::kSlidingWindow, 0.0},
      {2, 7, 5, 103, masks::PatternKind::kStrided, 10.0},
      {3, 30, 10, 104, masks::PatternKind::kCausal, 10.0},
      {4, 16, 4, 105, masks::PatternKind::kBigBird, 25.0},
      {5, 9, 7, 106, masks::PatternKind::kSlidingWindow, 40.0},
  };
}

template <typename Sys>
void replay(Sys& sys, const std::vector<Request>& trace) {
  std::size_t next = 0;
  while (next < trace.size() || !sys.idle()) {
    while (next < trace.size() &&
           trace[next].arrival_us <= sys.sim_time_us()) {
      sys.submit(trace[next++]);
    }
    if (sys.idle()) {
      ASSERT_LT(next, trace.size());
      sys.advance_to(trace[next].arrival_us);
      continue;
    }
    sys.step();
  }
}

void expect_digests_equal(Engine& a, Engine& b,
                          const std::vector<Request>& trace,
                          const char* what) {
  for (const auto& r : trace) {
    const Session& sa = a.session(r.id);
    const Session& sb = b.session(r.id);
    EXPECT_EQ(sa.phase, SessionPhase::kFinished) << what << " session " << r.id;
    EXPECT_EQ(sb.phase, SessionPhase::kFinished) << what << " session " << r.id;
    EXPECT_EQ(sa.digest, sb.digest) << what << " session " << r.id;
  }
}

TEST(ServeModel, FusedAndUnfusedDigestsMatchAndFusedIsFaster) {
  const auto trace = mixed_trace();  // covers all four serving mask kinds
  for (const ModelKind kind : {ModelKind::kBertEncoder, ModelKind::kGptDecoder,
                               ModelKind::kT5CrossDecoder}) {
    Engine fused(
        model_config(kind, SchedulerMode::kContinuous, 16, /*fused=*/true));
    Engine unfused(
        model_config(kind, SchedulerMode::kContinuous, 16, /*fused=*/false));
    replay(fused, trace);
    replay(unfused, trace);
    expect_digests_equal(fused, unfused, trace, to_string(kind).c_str());
    // Same steps, same rows, same attention launches — only the layer
    // execution differs, so fused must win outright in simulated time.
    EXPECT_LT(fused.sim_time_us(), unfused.sim_time_us()) << to_string(kind);
  }
}

TEST(ServeModel, SerialAndContinuousDigestsMatchWithModelEnabled) {
  const auto trace = mixed_trace();
  Engine serial(model_config(ModelKind::kGptDecoder, SchedulerMode::kSerial,
                             16, true));
  Engine continuous(model_config(ModelKind::kGptDecoder,
                                 SchedulerMode::kContinuous, 16, true));
  replay(serial, trace);
  replay(continuous, trace);
  expect_digests_equal(serial, continuous, trace, "serial-vs-continuous");
  EXPECT_LT(continuous.sim_time_us(), serial.sim_time_us());
}

TEST(ServeModel, LayerHeadActuallyChangesDigests) {
  // Guard against the transform silently no-opping: model-on digests must
  // differ from attention-only digests on the same trace.
  const auto trace = mixed_trace();
  EngineConfig bare = model_config(ModelKind::kGptDecoder,
                                   SchedulerMode::kContinuous, 16, true);
  bare.model.kind = ModelKind::kNone;
  Engine plain(bare);
  Engine modeled(model_config(ModelKind::kGptDecoder,
                              SchedulerMode::kContinuous, 16, true));
  replay(plain, trace);
  replay(modeled, trace);
  bool any_diff = false;
  for (const auto& r : trace) {
    any_diff |= plain.session(r.id).digest != modeled.session(r.id).digest;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ServeModel, ChunkedPrefillStaysByteIdentical) {
  const auto trace = mixed_trace();
  EngineConfig whole = model_config(ModelKind::kGptDecoder,
                                    SchedulerMode::kContinuous, 16, true);
  EngineConfig chunked = whole;
  chunked.scheduler.chunk_tokens = 8;  // splits every prompt
  Engine a(whole), b(chunked);
  replay(a, trace);
  replay(b, trace);
  expect_digests_equal(a, b, trace, "chunked-prefill");
}

TEST(ServeModel, PreemptionRecomputeStaysByteIdentical) {
  // Tight pool forces eviction + full-context re-prefill mid-generation;
  // the layer head is a pure function of the attention outputs, so the
  // recomputed rows transform to the same bytes.
  const auto trace = mixed_trace();
  Engine roomy(
      model_config(ModelKind::kBertEncoder, SchedulerMode::kSerial, 16, true));
  Engine tight(model_config(ModelKind::kBertEncoder,
                            SchedulerMode::kContinuous, 4, true));
  replay(roomy, trace);
  replay(tight, trace);
  EXPECT_GT(tight.stats().preemptions, 0)
      << "trace must actually trigger preemption for this test to bite";
  expect_digests_equal(roomy, tight, trace, "preemption");
}

TEST(ServeModel, SpeculativeDecodingStaysByteIdentical) {
  const auto trace = mixed_trace();
  EngineConfig plain = model_config(ModelKind::kGptDecoder,
                                    SchedulerMode::kContinuous, 16, true);
  EngineConfig spec = plain;
  spec.spec_draft_tokens = 2;
  spec.spec_accept_pct = 70;
  Engine a(plain), b(spec);
  replay(a, trace);
  replay(b, trace);
  expect_digests_equal(a, b, trace, "speculative");
}

TEST(ServeModel, ClusterDigestsMatchSingleDeviceFusedEngine) {
  const auto trace = mixed_trace();
  EngineConfig cfg = model_config(ModelKind::kGptDecoder,
                                  SchedulerMode::kContinuous, 24, true);
  cfg.heads = 4;  // shardable over 2 devices
  Engine reference(cfg);
  replay(reference, trace);

  cluster::ClusterConfig ccfg;
  ccfg.devices = 2;
  ccfg.engine = cfg;
  cluster::Cluster cl(ccfg);
  replay(cl, trace);
  for (const auto& r : trace) {
    const auto it = cl.digests().find(r.id);
    ASSERT_NE(it, cl.digests().end()) << "session " << r.id;
    EXPECT_EQ(it->second, reference.session(r.id).digest)
        << "session " << r.id;
  }
  EXPECT_GT(cl.collective_us(), 0.0);
}

TEST(ServeModel, T5ClusterChargesThreeCollectivesPerLayer) {
  const auto trace = mixed_trace();
  EngineConfig cfg = model_config(ModelKind::kT5CrossDecoder,
                                  SchedulerMode::kContinuous, 24, true);
  cfg.heads = 4;
  cluster::ClusterConfig c2 = {};
  c2.devices = 2;
  c2.engine = cfg;
  cluster::Cluster t5(c2);
  replay(t5, trace);

  c2.engine.model.kind = ModelKind::kGptDecoder;
  cluster::Cluster gpt(c2);
  replay(gpt, trace);
  // Same link, same rows, same layer count: T5's third per-layer
  // all-reduce (cross-attention out-proj) must show up as 1.5x the
  // collective time of the 2-collective GPT stack.
  EXPECT_NEAR(t5.collective_us(), 1.5 * gpt.collective_us(),
              1e-6 * t5.collective_us());
}

TEST(ServeModel, BertAndGptClustersChargeTwoCollectivesPerLayer) {
  const auto trace = mixed_trace();
  for (const ModelKind kind :
       {ModelKind::kBertEncoder, ModelKind::kGptDecoder}) {
    EngineConfig cfg =
        model_config(kind, SchedulerMode::kContinuous, 24, true);
    cfg.heads = 4;
    cfg.model.layers = 3;
    cluster::ClusterConfig c2 = {};
    c2.devices = 2;
    c2.engine = cfg;
    cluster::Cluster cl(c2);
    replay(cl, trace);
    // Every step of this trace ingests rows, so each charges the layer's
    // two row-parallel GEMMs (attention out-proj + FFN down-proj) as
    // all-reduces, once per layer, onto every shard's stream.
    for (int dev = 0; dev < c2.devices; ++dev) {
      const auto& records = cl.engine(dev).stream().records();
      const auto calls = std::ranges::count_if(
          records, [](const auto& r) { return r.name == "cluster.allreduce"; });
      EXPECT_EQ(calls, 2 * cfg.model.layers * cl.stats().steps)
          << to_string(kind) << " device " << dev;
    }
  }
}

/// FNV-1a of the layer head's output bytes for `rows` seeded input rows at
/// chat's 4 x 32 width and `layers` layers (chat serves 2).
std::uint64_t head_hash(ModelKind kind, std::int64_t rows,
                        std::int64_t layers) {
  ModelSpec spec;
  spec.kind = kind;
  spec.layers = layers;
  const ModelRuntime head(spec, /*heads=*/4, /*head_size=*/32,
                          gpusim::rtx4090(), /*with_weights=*/true);
  TensorH x(Shape{rows, head.hidden()});
  Rng rng(0x4ead + static_cast<std::uint64_t>(rows));
  x.fill_random(rng);
  head.transform_rows(x);
  const TensorH& out = x;
  return fnv1a64(out.data().data(), out.data().size_bytes());
}

TEST(ServeModel, LayerHeadOutputBytesArePinned) {
  // The head's bytes are what every model-on digest folds; the 2-layer
  // constants were recorded from the per-element op bodies, so any rewrite
  // of the ops the head calls must reproduce them exactly.  The 3-layer
  // ones were recorded from the hand-written per-family head the graph
  // walk replaced; they pin each weight's stream at layer index 2.
  struct Pin {
    ModelKind kind;
    std::int64_t rows;
    std::int64_t layers;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {ModelKind::kBertEncoder, 1, 2, 17136626186353796608ull},
      {ModelKind::kBertEncoder, 19, 2, 2306050723451037029ull},
      {ModelKind::kBertEncoder, 64, 2, 5107462331186767042ull},
      {ModelKind::kBertEncoder, 19, 3, 14906873971513238904ull},
      {ModelKind::kGptDecoder, 1, 2, 13098554404679929785ull},
      {ModelKind::kGptDecoder, 19, 2, 16863880669873033762ull},
      {ModelKind::kGptDecoder, 64, 2, 626368756071840210ull},
      {ModelKind::kGptDecoder, 19, 3, 4857835566306402368ull},
      {ModelKind::kT5CrossDecoder, 1, 2, 9158218869087082358ull},
      {ModelKind::kT5CrossDecoder, 19, 2, 14802842252017082102ull},
      {ModelKind::kT5CrossDecoder, 64, 2, 11212064759317582813ull},
      {ModelKind::kT5CrossDecoder, 19, 3, 14044214454102521467ull},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(head_hash(p.kind, p.rows, p.layers), p.hash)
        << to_string(p.kind) << " at " << p.rows << " rows, " << p.layers
        << " layers";
    core::ScopedKernelIsa scalar(core::Isa::kScalar);
    EXPECT_EQ(head_hash(p.kind, p.rows, p.layers), p.hash)
        << to_string(p.kind) << " at " << p.rows << " rows, " << p.layers
        << " layers, scalar kernels";
  }
}

TEST(ServeModel, EngineWarmLoadHitsTuningDb) {
  namespace fs = std::filesystem;
  telemetry::ScopedTelemetry scope(true);
  const fs::path dir =
      fs::temp_directory_path() / "stof_tunedb_tests" / "engine_warm";
  fs::remove_all(dir);

  EngineConfig cfg = model_config(ModelKind::kGptDecoder,
                                  SchedulerMode::kContinuous, 16, true);
  cfg.model.tune_db_dir = dir.string();

  telemetry::global_registry().reset();
  Engine cold(cfg);  // prewarms buckets 16 and 128 -> tunes + stores
  const auto& reg = telemetry::global_registry();
  EXPECT_EQ(reg.counter("tunedb.hits"), 0);
  EXPECT_GT(reg.counter("tunedb.misses"), 0);
  EXPECT_GT(reg.counter("serve.model.tunes"), 0);
  EXPECT_GT(reg.counter("tunedb.store_writes"), 0);

  telemetry::global_registry().reset();
  Engine warm(cfg);  // same graph/device/buckets -> pure DB hits
  EXPECT_GT(reg.counter("tunedb.hits"), 0);
  EXPECT_EQ(reg.counter("tunedb.misses"), 0);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 0);

  // Warm-loaded plans drive the same timeline: replay both engines and
  // compare clocks and digests exactly.
  const auto trace = mixed_trace();
  telemetry::set_enabled(false);
  replay(cold, trace);
  replay(warm, trace);
  expect_digests_equal(cold, warm, trace, "cold-vs-warm");
  EXPECT_EQ(cold.sim_time_us(), warm.sim_time_us());
}

// ---- model load: the buckets a step can reach ------------------------------

TEST(EnginePrewarm, ChunkedEngineTunesItsChunkBudget) {
  telemetry::ScopedTelemetry scope(true);
  const auto& reg = telemetry::global_registry();
  EngineConfig cfg = model_config(ModelKind::kGptDecoder,
                                  SchedulerMode::kContinuous, 16, true);
  cfg.max_seq_len = 192;
  cfg.scheduler.prefill_token_budget = 1024;
  cfg.scheduler.max_decode_batch = 64;
  cfg.scheduler.chunk_tokens = 128;

  // A chunked step prefills at most chunk_tokens rows, so model load tunes
  // the decode bucket 64 and the chunk bucket 128, not the 1024 budget.
  telemetry::global_registry().reset();
  Engine chunked(cfg);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  (void)chunked.model_runtime()->plan_for(64);
  (void)chunked.model_runtime()->plan_for(128);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  // A full chunk is one 128-row step: it finds its plan tuned.
  chunked.submit({0, 160, 4, 7, masks::PatternKind::kCausal, 0.0});
  ASSERT_TRUE(chunked.step());
  EXPECT_EQ(chunked.stats().prefill_tokens, 128);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);

  // Whole prefills spend prefill_token_budget, so that bucket is prewarmed.
  cfg.scheduler.chunk_tokens = 0;
  telemetry::global_registry().reset();
  Engine whole(cfg);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  (void)whole.model_runtime()->plan_for(64);
  (void)whole.model_runtime()->plan_for(1024);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  telemetry::global_registry().reset();
}

TEST(EnginePrewarm, SerialEngineTunesNoBucketPastItsContext) {
  // A serial step prefills one context of at most max_seq_len rows, so a
  // budget of 1024 does not make model load tune bucket 1024: it tunes the
  // decode bucket 16 and the context bucket 256, and nothing else.
  telemetry::ScopedTelemetry scope(true);
  const auto& reg = telemetry::global_registry();
  EngineConfig cfg = model_config(ModelKind::kGptDecoder,
                                  SchedulerMode::kSerial, 16, true);
  cfg.max_seq_len = 176;
  cfg.scheduler.prefill_token_budget = 1024;

  telemetry::global_registry().reset();
  Engine serial(cfg);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  (void)serial.model_runtime()->plan_for(16);
  (void)serial.model_runtime()->plan_for(cfg.max_seq_len);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  // A whole context is one step that finds its plan tuned.
  serial.submit({0, 170, 2, 9, masks::PatternKind::kCausal, 0.0});
  ASSERT_TRUE(serial.step());
  EXPECT_EQ(serial.stats().prefill_tokens, 170);
  EXPECT_EQ(reg.counter("serve.model.tunes"), 2);
  telemetry::global_registry().reset();
}

}  // namespace
}  // namespace stof::serve
