// Cluster tests: tensor-parallel shard-and-reduce bit-identity against the
// single-device engine (all four serving mask kinds, uneven shards,
// preemption pressure, prefix sharing, speculative decoding, the GPT model
// head), head-range sharding, a scheduler-fuzz replay through a 2-device
// cluster with per-device KV conservation audits, the single output-row
// path (every position's row is committed exactly once, in order, by an
// engine and by every shard), and one model plan table per shard width.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "stof/cluster/cluster.hpp"
#include "stof/cluster/sharding.hpp"
#include "stof/core/checksum.hpp"
#include "stof/core/rng.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::cluster {
namespace {

using serve::Engine;
using serve::EngineConfig;
using serve::Request;
using serve::SchedulerMode;
using serve::Session;
using serve::SessionId;
using serve::SessionPhase;

// ---- sharding helpers -----------------------------------------------------

TEST(Sharding, HeadRangeTilesTotalExactly) {
  for (const std::int64_t total : {1, 2, 5, 6, 8, 32}) {
    for (int devices = 1; devices <= total; ++devices) {
      std::int64_t covered = 0;
      for (int d = 0; d < devices; ++d) {
        const HeadRange hr = head_range(total, devices, d);
        EXPECT_EQ(hr.begin, covered) << "ranges must be contiguous";
        EXPECT_GE(hr.count, 1);
        covered = hr.end();
      }
      EXPECT_EQ(covered, total);
    }
  }
  // Uneven split: the remainder lands on the leading shards.
  EXPECT_EQ(head_range(6, 4, 0).count, 2);
  EXPECT_EQ(head_range(6, 4, 1).count, 2);
  EXPECT_EQ(head_range(6, 4, 2).count, 1);
  EXPECT_EQ(head_range(6, 4, 3).count, 1);
}

// ---- cluster replay harness ----------------------------------------------

constexpr std::int64_t kMaxSeq = 64;

EngineConfig base_config(std::int64_t heads, std::int64_t kv_blocks) {
  EngineConfig cfg;
  cfg.heads = heads;
  cfg.head_size = 16;
  cfg.max_seq_len = kMaxSeq;
  cfg.kv_blocks = kv_blocks;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = SchedulerMode::kContinuous;
  cfg.scheduler.max_prefills_per_step = 4;
  cfg.scheduler.prefill_token_budget = 128;
  cfg.scheduler.max_decode_batch = 16;
  return cfg;
}

std::vector<Request> mixed_trace(std::uint64_t seed, std::int64_t n_requests) {
  Rng rng(seed);
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kCausal, masks::PatternKind::kSlidingWindow,
      masks::PatternKind::kStrided, masks::PatternKind::kBigBird};
  std::vector<Request> trace;
  double clock = 0;
  for (std::int64_t i = 0; i < n_requests; ++i) {
    if (rng.next_double() > 0.3) clock += 2.0 + 25.0 * rng.next_double();
    Request r;
    r.id = i;
    r.prompt_len = 4 + static_cast<std::int64_t>(rng.next_u64() % 28);
    r.max_new_tokens = 2 + static_cast<std::int64_t>(rng.next_u64() % 8);
    r.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    r.mask_kind = kinds[i % 4];
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

/// mixed_trace with hot templates overlaid on ~70% of the requests
/// (template_len 8..31: chains cover a partial page and often a full one).
std::vector<Request> templated_trace(std::uint64_t seed,
                                     std::int64_t n_requests) {
  auto trace = mixed_trace(seed, n_requests);
  Rng rng(seed ^ 0xfeedULL);
  for (auto& r : trace) {
    if (rng.next_double() < 0.3) continue;
    r.template_seed = 77001 + rng.next_u64() % 3;
    r.template_len = 8 + static_cast<std::int64_t>(rng.next_u64() % 24);
    r.prompt_len = std::max(r.prompt_len, r.template_len + 1);
  }
  return trace;
}

/// Open-loop trace replay; works for Engine and Cluster alike (both expose
/// submit/step/idle/sim_time_us/advance_to).
template <typename Sys>
void replay(Sys& sys, const std::vector<Request>& trace) {
  std::size_t next = 0;
  std::int64_t steps = 0;
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
    ASSERT_TRUE(sys.step());
    ASSERT_LT(++steps, 100000) << "replay failed to drain";
  }
}

std::map<SessionId, std::uint64_t> engine_digests(
    Engine& engine, const std::vector<Request>& trace) {
  replay(engine, trace);
  std::map<SessionId, std::uint64_t> digests;
  for (const auto& r : trace) {
    const Session& s = engine.session(r.id);
    EXPECT_EQ(s.phase, SessionPhase::kFinished) << "session " << r.id;
    digests[r.id] = s.digest;
  }
  return digests;
}

void expect_cluster_matches_engine(const EngineConfig& cfg,
                                   const std::vector<Request>& trace,
                                   const std::vector<int>& device_counts) {
  Engine reference(cfg);
  const auto ref = engine_digests(reference, trace);
  ASSERT_EQ(ref.size(), trace.size());
  for (const int n : device_counts) {
    ClusterConfig ccfg;
    ccfg.devices = n;
    ccfg.engine = cfg;
    Cluster cluster(ccfg);
    replay(cluster, trace);
    EXPECT_EQ(cluster.digests(), ref)
        << n << "-way tensor-parallel digests diverged from single-device";
    if (n > 1) {
      EXPECT_GT(cluster.collective_us(), 0.0)
          << "multi-device steps must charge collective time";
    }
  }
}

// ---- bit-identity across tensor-parallel widths ---------------------------

TEST(Cluster, DigestsMatchSingleDeviceAtEveryTPWidth) {
  expect_cluster_matches_engine(base_config(8, 48), mixed_trace(101, 14),
                                {1, 2, 4, 8});
}

TEST(Cluster, UnevenHeadShardsStayBitIdentical) {
  // 6 heads over 4 devices: shards own 2/2/1/1 heads; the fixed-order
  // gather still reassembles the full-width rows exactly.
  expect_cluster_matches_engine(base_config(6, 48), mixed_trace(211, 10),
                                {2, 4});
}

TEST(Cluster, PreemptionPressureStaysBitIdentical) {
  // A tight pool forces evictions and re-prefills; every shard's pool has
  // identical BLOCK accounting, so preemption decisions stay lock-step and
  // recovery reproduces the same bytes.
  expect_cluster_matches_engine(base_config(8, 8), mixed_trace(307, 12),
                                {2, 4});
}

TEST(Cluster, ChunkedPrefillWithPrefixSharingStaysBitIdentical) {
  EngineConfig cfg = base_config(8, 48);
  cfg.scheduler.chunk_tokens = 24;
  cfg.scheduler.prefix_sharing = true;
  expect_cluster_matches_engine(cfg, templated_trace(409, 14), {2, 4});
}

TEST(Cluster, SpeculativeDecodingStaysBitIdentical) {
  EngineConfig cfg = base_config(8, 48);
  cfg.spec_draft_tokens = 2;
  cfg.spec_accept_pct = 70;
  expect_cluster_matches_engine(cfg, mixed_trace(503, 12), {2, 4});
}

TEST(Cluster, GptModelWithPrefixSharingAndPreemptionMatchesSingleDevice) {
  // The model head applied to assembled rows, plus prefix adopters whose
  // digests are seeded mid-stream, plus preemption recompute — at every
  // width, one device included.
  EngineConfig cfg = base_config(8, 8);
  cfg.scheduler.prefix_sharing = true;
  cfg.model.kind = serve::ModelKind::kGptDecoder;
  cfg.model.layers = 2;
  const auto trace = templated_trace(409, 14);
  expect_cluster_matches_engine(cfg, trace, {1, 2, 4});

  telemetry::ScopedTelemetry scoped(true);
  telemetry::global_registry().reset();
  Engine reference(cfg);
  replay(reference, trace);
  EXPECT_GT(reference.stats().preemptions, 0) << "pool was not tight enough";
  EXPECT_GT(telemetry::global_registry().counter("serve.prefix.hits"), 0)
      << "trace never exercised adoption";
  telemetry::global_registry().reset();
}

// ---- digest identity past one split-KV decode chunk -------------------------

/// Requests of all four mask kinds whose decode rows sit at positions
/// 290..340, so every decode row's columns span three 128-token chunks and
/// merge their partial softmax states.
std::vector<Request> long_context_trace(std::uint64_t seed,
                                        std::int64_t n_requests) {
  Rng rng(seed);
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kCausal, masks::PatternKind::kSlidingWindow,
      masks::PatternKind::kStrided, masks::PatternKind::kBigBird};
  std::vector<Request> trace;
  double clock = 0;
  for (std::int64_t i = 0; i < n_requests; ++i) {
    clock += 5.0 + 40.0 * rng.next_double();
    Request r;
    r.id = i;
    r.prompt_len = 290 + static_cast<std::int64_t>(rng.next_u64() % 40);
    r.max_new_tokens = 3 + static_cast<std::int64_t>(rng.next_u64() % 8);
    r.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    r.mask_kind = kinds[i % 4];
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

TEST(Cluster, DigestsPastOneDecodeChunkMatchAcrossModesAndWidths) {
  EngineConfig cfg = base_config(8, 160);
  cfg.max_seq_len = 352;
  cfg.scheduler.prefill_token_budget = 704;
  const auto trace = long_context_trace(601, 8);

  EngineConfig serial = cfg;
  serial.scheduler.mode = SchedulerMode::kSerial;
  Engine reference(serial);
  const auto ref = engine_digests(reference, trace);

  EngineConfig chunked = cfg;
  chunked.scheduler.chunk_tokens = 64;
  // Room for one whole context and a slice of the next: chunked admission
  // lets a second session start while the first decodes, and decode growth
  // preempts it.
  EngineConfig tight = chunked;
  tight.kv_blocks = 26;
  EngineConfig spec = cfg;
  spec.spec_draft_tokens = 2;
  spec.spec_accept_pct = 70;
  for (const EngineConfig* c : {&cfg, &chunked, &tight, &spec}) {
    Engine engine(*c);
    EXPECT_EQ(engine_digests(engine, trace), ref)
        << "chunk_tokens " << c->scheduler.chunk_tokens << ", kv_blocks "
        << c->kv_blocks << ", drafts " << c->spec_draft_tokens;
    if (c == &tight) {
      EXPECT_GT(engine.stats().preemptions, 0) << "pool was not tight enough";
    }
  }
  expect_cluster_matches_engine(cfg, trace, {1, 2, 4, 8});
}

// ---- the single output-row path --------------------------------------------

/// Positions each session's committed output rows covered, in commit order.
using FoldLog = std::map<SessionId, std::vector<std::int64_t>>;

void log_folds(Engine& engine, FoldLog& log) {
  engine.on_step = [&engine, &log](const serve::StepOutcome& ev, std::int64_t,
                                   double, std::int64_t) {
    EXPECT_EQ(ev.rows.width,
              engine.config().heads * engine.config().head_size);
    EXPECT_EQ(ev.rows.data.size(),
              ev.rows.size() * static_cast<std::size_t>(ev.rows.width));
    for (const auto& key : ev.rows.keys) log[key.id].push_back(key.pos);
  };
}

/// Every session folded exactly [start, target_len), each position once,
/// in order; start is 0, or — for a prefix adopter — a page boundary or
/// the template end inside its template.  Returns the adopter count.
int expect_folds_exactly_once(const FoldLog& log,
                              const std::vector<Request>& trace,
                              std::int64_t block_tokens) {
  int adopters = 0;
  for (const auto& r : trace) {
    const auto it = log.find(r.id);
    if (it == log.end()) {
      ADD_FAILURE() << "session " << r.id << " folded nothing";
      continue;
    }
    const std::vector<std::int64_t>& pos = it->second;
    const std::int64_t start = pos.front();
    if (start > 0) {
      ++adopters;
      EXPECT_LE(start, r.template_len) << "session " << r.id;
      EXPECT_TRUE(start % block_tokens == 0 || start == r.template_len)
          << "session " << r.id << " starts at " << start;
    }
    std::vector<std::int64_t> want(
        static_cast<std::size_t>(r.target_len() - start));
    std::iota(want.begin(), want.end(), start);
    EXPECT_EQ(pos, want) << "session " << r.id;
  }
  return adopters;
}

TEST(Cluster, EveryPositionFoldsOnceInOrderOnEngineAndEveryShard) {
  // Prefix sharing, a pool tight enough to preempt, chunked and whole
  // prefill, and speculative rounds that roll back rejected rows.
  for (const std::int64_t chunk : {24, 0}) {
    EngineConfig cfg = base_config(8, 8);
    cfg.scheduler.chunk_tokens = chunk;
    cfg.scheduler.prefix_sharing = true;
    cfg.spec_draft_tokens = 2;
    cfg.spec_accept_pct = 70;
    const auto trace = templated_trace(409, 14);

    FoldLog log;
    Engine engine(cfg);
    log_folds(engine, log);
    replay(engine, trace);
    EXPECT_GT(engine.stats().preemptions, 0) << "chunk " << chunk;
    EXPECT_GT(expect_folds_exactly_once(log, trace, cfg.block_tokens), 0)
        << "no session adopted a prefix, chunk " << chunk;

    for (const int n : {1, 2, 4}) {
      ClusterConfig ccfg;
      ccfg.devices = n;
      ccfg.engine = cfg;
      std::vector<FoldLog> shard_logs(static_cast<std::size_t>(n));
      Cluster cluster(ccfg);  // its shards' on_step write to shard_logs
      for (int d = 0; d < n; ++d) {
        log_folds(cluster.engine(d), shard_logs[static_cast<std::size_t>(d)]);
      }
      replay(cluster, trace);
      for (const auto& shard_log : shard_logs) {
        expect_folds_exactly_once(shard_log, trace, cfg.block_tokens);
        EXPECT_EQ(shard_log, log) << n << " devices, chunk " << chunk;
      }
    }
  }
}

// ---- runtime invariants ---------------------------------------------------

TEST(Cluster, ShardClocksAgreeAndCollectivesAppearOnEveryTimeline) {
  ClusterConfig ccfg;
  ccfg.devices = 4;
  ccfg.engine = base_config(8, 48);
  Cluster cluster(ccfg);
  replay(cluster, mixed_trace(601, 8));
  const double t0 = cluster.engine(0).sim_time_us();
  EXPECT_GT(t0, 0.0);
  for (int d = 0; d < cluster.devices(); ++d) {
    EXPECT_EQ(cluster.engine(d).sim_time_us(), t0)
        << "lock-step shards must agree on the clock";
    double collective = 0;
    for (const auto& rec : cluster.engine(d).stream().records()) {
      if (rec.name == "cluster.allreduce") collective += rec.time_us;
    }
    EXPECT_GT(collective, 0.0) << "device " << d;
  }
  // stats() mirror each other across shards.
  for (int d = 1; d < cluster.devices(); ++d) {
    EXPECT_EQ(cluster.engine(d).stats().steps, cluster.stats().steps);
    EXPECT_EQ(cluster.engine(d).stats().finished, cluster.stats().finished);
    EXPECT_EQ(cluster.engine(d).stats().preemptions,
              cluster.stats().preemptions);
  }
}

TEST(Cluster, SchedulerFuzzReplayWithPerDeviceConservation) {
  for (const std::uint64_t seed : {31ull, 59ull}) {
    const auto trace = mixed_trace(seed, 16);
    EngineConfig cfg = base_config(8, 10);  // tight: preemption fires
    cfg.scheduler.chunk_tokens = 24;

    Engine reference(cfg);
    const auto ref = engine_digests(reference, trace);

    ClusterConfig ccfg;
    ccfg.devices = 2;
    ccfg.engine = cfg;
    Cluster cluster(ccfg);

    std::size_t next = 0;
    std::int64_t steps = 0;
    while (next < trace.size() || !cluster.idle()) {
      while (next < trace.size() &&
             trace[next].arrival_us <= cluster.sim_time_us()) {
        cluster.submit(trace[next++]);
      }
      if (cluster.idle()) {
        ASSERT_LT(next, trace.size());
        cluster.advance_to(trace[next].arrival_us);
        continue;
      }
      ASSERT_TRUE(cluster.step());
      for (int d = 0; d < cluster.devices(); ++d) {
        ASSERT_TRUE(cluster.engine(d).pool().check_conservation())
            << "device " << d << " KV refcount audit, step " << steps;
      }
      ASSERT_LT(++steps, 100000) << "replay failed to drain";
    }
    EXPECT_EQ(cluster.digests(), ref) << "seed " << seed;
  }
}

// ---- one plan table per shard width ------------------------------------------

/// base_config(heads, 48) serving a 2-layer GPT model.
EngineConfig gpt_config(std::int64_t heads) {
  EngineConfig cfg = base_config(heads, 48);
  cfg.model.kind = serve::ModelKind::kGptDecoder;
  cfg.model.layers = 2;
  return cfg;
}

/// mixed_trace with every request arriving at 0: a cluster's collectives
/// stretch its clock, so only a closed-loop trace plans the same steps on
/// a cluster and on a lone engine.
std::vector<Request> burst_trace(std::uint64_t seed, std::int64_t n_requests) {
  auto trace = mixed_trace(seed, n_requests);
  for (auto& r : trace) r.arrival_us = 0;
  return trace;
}

/// serve.model.tunes after constructing `Sys` from `config`, and after
/// replaying `trace` on it to the drain.
struct TuneCounts {
  std::int64_t setup = 0;
  std::int64_t drained = 0;
};

template <typename Sys, typename Config>
TuneCounts count_tunes(const Config& config,
                       const std::vector<Request>& trace) {
  telemetry::global_registry().reset();
  Sys sys(config);
  TuneCounts n;
  n.setup = telemetry::global_registry().counter("serve.model.tunes");
  replay(sys, trace);
  n.drained = telemetry::global_registry().counter("serve.model.tunes");
  return n;
}

TEST(ClusterModelPlans, EqualShardsTuneEachBucketOnce) {
  telemetry::ScopedTelemetry scoped(true);
  const auto trace = burst_trace(701, 12);
  ClusterConfig ccfg;
  ccfg.devices = 4;
  ccfg.engine = gpt_config(4);

  // Four one-head shards tune exactly what one one-head engine tunes: the
  // decode and prefill buckets at load, each further bucket once.
  const TuneCounts cluster = count_tunes<Cluster>(ccfg, trace);
  const TuneCounts engine = count_tunes<Engine>(gpt_config(1), trace);
  EXPECT_EQ(cluster.setup, 2);
  EXPECT_EQ(cluster.setup, engine.setup);
  EXPECT_GT(cluster.drained, cluster.setup);
  EXPECT_EQ(cluster.drained, engine.drained);
  telemetry::global_registry().reset();

  // Sharing the table changes when plans tune, never what they are: the
  // shard clocks and cluster digests are the ones recorded before shards
  // shared a table.
  Cluster c(ccfg);
  replay(c, trace);
  for (int d = 0; d < c.devices(); ++d) {
    EXPECT_EQ(c.engine(d).sim_time_us(), 0x1.75b396054b0c6p+8)
        << "device " << d << ": " << std::hexfloat
        << c.engine(d).sim_time_us();
  }
  std::uint64_t digests = kFnv1aOffset;
  for (const auto& [id, digest] : c.digests()) {
    digests = fnv1a64(&id, sizeof(id), digests);
    digests = fnv1a64(&digest, sizeof(digest), digests);
  }
  EXPECT_EQ(c.digests().size(), trace.size());
  EXPECT_EQ(digests, 0x98eb775c41bc5938ull) << std::hex << digests;
}

TEST(ClusterModelPlans, UnequalWidthsTuneOncePerWidth) {
  // 6 heads over 4 devices: two 2-head and two 1-head shards, so every
  // bucket tunes once at width 2 and once at width 1.
  telemetry::ScopedTelemetry scoped(true);
  const auto trace = burst_trace(211, 10);
  ClusterConfig ccfg;
  ccfg.devices = 4;
  ccfg.engine = gpt_config(6);
  const TuneCounts cluster = count_tunes<Cluster>(ccfg, trace);
  const TuneCounts wide = count_tunes<Engine>(gpt_config(2), trace);
  const TuneCounts narrow = count_tunes<Engine>(gpt_config(1), trace);
  EXPECT_EQ(cluster.setup, 4);
  EXPECT_EQ(cluster.setup, wide.setup + narrow.setup);
  EXPECT_EQ(cluster.drained, wide.drained + narrow.drained);
  telemetry::global_registry().reset();
}

TEST(ClusterModelPlans, TuningDbFilesAreReadAndWrittenOncePerCluster) {
  namespace fs = std::filesystem;
  telemetry::ScopedTelemetry scoped(true);
  const fs::path root = fs::temp_directory_path() / "stof_tunedb_tests";
  const fs::path cluster_dir = root / "cluster_plans";
  const fs::path engine_dir = root / "cluster_plans_engine";
  fs::remove_all(cluster_dir);
  fs::remove_all(engine_dir);
  const auto trace = burst_trace(701, 12);
  const auto& reg = telemetry::global_registry();

  EngineConfig one = gpt_config(1);
  one.model.tune_db_dir = engine_dir.string();
  (void)count_tunes<Engine>(one, trace);
  const std::int64_t engine_writes = reg.counter("tunedb.store_writes");

  ClusterConfig ccfg;
  ccfg.devices = 4;
  ccfg.engine = gpt_config(4);
  ccfg.engine.model.tune_db_dir = cluster_dir.string();
  (void)count_tunes<Cluster>(ccfg, trace);  // cold
  EXPECT_GT(engine_writes, 0);
  EXPECT_EQ(reg.counter("tunedb.store_writes"), engine_writes);
  EXPECT_EQ(reg.counter("tunedb.misses"), engine_writes);
  EXPECT_EQ(reg.counter("tunedb.hits"), 0);

  const TuneCounts warm = count_tunes<Cluster>(ccfg, trace);
  EXPECT_EQ(reg.counter("tunedb.misses"), 0);
  EXPECT_EQ(reg.counter("tunedb.hits"), engine_writes);
  EXPECT_EQ(warm.drained, 0);
  telemetry::global_registry().reset();
  fs::remove_all(cluster_dir);
  fs::remove_all(engine_dir);
}

TEST(ClusterModelPlans, EachRuntimeHasOneOwner) {
  // A shard takes its cluster's cost-only runtime and never builds one; an
  // unsharded engine builds its own, weights included, and never takes one.
  EngineConfig shard = gpt_config(1);
  shard.total_heads = 4;
  shard.head_offset = 1;
  EXPECT_THROW(Engine{shard}, Error);
  const auto runtime = std::make_shared<serve::ModelRuntime>(
      shard.model, shard.heads, shard.head_size, shard.device,
      /*with_weights=*/false);
  EXPECT_NO_THROW(Engine(shard, runtime));
  EXPECT_THROW(Engine(gpt_config(1), runtime), Error);
}

}  // namespace
}  // namespace stof::cluster
