// Shared harness for the serving benches: seeded open-loop trace
// generation and a mode runner that replays one trace through a serve
// Engine and reduces it to throughput/latency/occupancy statistics.
//
// All times are *simulated* microseconds (the engine clock advances by the
// gpusim Stream's estimate of each step), so every number here — including
// the continuous-vs-serial speedup the tier-1 gate tracks — is a
// deterministic function of (trace seed, engine config, device model).
// Every replay throws if a KV pool's block accounting does not balance
// once the trace has drained (KvPool::check_conservation).
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "stof/cluster/cluster.hpp"
#include "stof/core/check.hpp"
#include "stof/serve/engine.hpp"

namespace stof::serve::bench {

struct TraceConfig {
  std::int64_t sessions = 64;
  std::uint64_t seed = 20260806;
  std::int64_t min_prompt = 16;
  std::int64_t max_prompt = 96;
  std::int64_t min_gen = 8;
  std::int64_t max_gen = 32;
  /// Small relative to the per-step kernel time on purpose: throughput is
  /// measured at saturation (requests queue faster than a batch-1 serial
  /// schedule can drain them).  An underloaded open-loop trace is arrival-
  /// bound and every scheduler trivially ties on makespan.
  double mean_interarrival_us = 10.0;
};

/// Seeded open-loop arrival trace over the four serving mask kinds.
inline std::vector<Request> make_trace(const TraceConfig& t) {
  Rng rng(t.seed);
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kCausal, masks::PatternKind::kSlidingWindow,
      masks::PatternKind::kStrided, masks::PatternKind::kBigBird};
  std::vector<Request> trace;
  trace.reserve(static_cast<std::size_t>(t.sessions));
  double clock = 0;
  for (std::int64_t i = 0; i < t.sessions; ++i) {
    Request r;
    r.id = i;
    r.prompt_len =
        t.min_prompt + static_cast<std::int64_t>(rng.next_below(
                           static_cast<std::uint64_t>(t.max_prompt -
                                                      t.min_prompt + 1)));
    r.max_new_tokens =
        t.min_gen + static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(t.max_gen - t.min_gen +
                                                   1)));
    r.seed = rng.next_u64();
    r.mask_kind = kinds[rng.next_below(std::size(kinds))];
    clock += rng.next_double() * 2.0 * t.mean_interarrival_us;
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

/// Bursty two-tenant trace for the SLO benches: tenant 0 submits a steady
/// stream of short-prompt, decode-heavy "interactive" requests at high
/// priority, while tenant 1 drops clustered bursts of near-max-context
/// "batch" prompts at low priority.  Under a whole-prefill schedule
/// each burst stalls every in-flight decode for several full prefills —
/// the head-of-line blocking that chunked prefill + priorities exist to
/// bound.  Returned sorted by arrival time (run_trace submits in order).
struct BurstTraceConfig {
  std::uint64_t seed = 20260807;
  std::int64_t interactive_sessions = 16;
  std::int64_t bursts = 2;
  std::int64_t burst_size = 24;
  double interactive_gap_us = 12.0;  ///< mean interactive inter-arrival
  double burst_period_us = 300.0;    ///< gap between burst clusters
  std::int64_t interactive_prompt_min = 8;
  std::int64_t interactive_prompt_max = 16;
  std::int64_t interactive_gen_min = 24;
  std::int64_t interactive_gen_max = 32;
  /// Long and numerous enough that the FIFO whole-prefill burst step is
  /// compute-dominated at full simulated-GPU utilization (the per-launch
  /// overhead is a few us — short prompts hide the head-of-line blocking
  /// the bench exists to expose).
  std::int64_t burst_prompt_min = 560;
  std::int64_t burst_prompt_max = 600;
  /// One token: the burst sessions' own decode traffic stays off the
  /// inter-token-gap distribution (a gap needs two tokens).
  std::int64_t burst_gen_min = 1;
  std::int64_t burst_gen_max = 1;
};

inline std::vector<Request> make_burst_trace(const BurstTraceConfig& t) {
  Rng rng(t.seed);
  std::vector<Request> trace;
  std::int64_t id = 0;
  double clock = 0;
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (std::int64_t i = 0; i < t.interactive_sessions; ++i) {
    Request r;
    r.id = id++;
    r.prompt_len = draw(t.interactive_prompt_min, t.interactive_prompt_max);
    r.max_new_tokens = draw(t.interactive_gen_min, t.interactive_gen_max);
    r.seed = rng.next_u64();
    r.mask_kind = masks::PatternKind::kCausal;
    clock += rng.next_double() * 2.0 * t.interactive_gap_us;
    r.arrival_us = clock;
    r.tenant = 0;
    r.priority = 2;
    r.deadline_us = clock + 2000.0;
    trace.push_back(r);
  }
  for (std::int64_t b = 0; b < t.bursts; ++b) {
    const double at = 40.0 + static_cast<double>(b) * t.burst_period_us;
    for (std::int64_t i = 0; i < t.burst_size; ++i) {
      Request r;
      r.id = id++;
      r.prompt_len = draw(t.burst_prompt_min, t.burst_prompt_max);
      r.max_new_tokens = draw(t.burst_gen_min, t.burst_gen_max);
      r.seed = rng.next_u64();
      r.mask_kind = masks::PatternKind::kCausal;
      r.arrival_us = at;  // the whole cluster lands on the same instant
      r.tenant = 1;
      r.priority = 0;
      trace.push_back(r);
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival_us < b.arrival_us;
                   });
  return trace;
}

/// Templated-prompt trace for the prefix-sharing benches: every request
/// instantiates one of `templates` prompt templates (a shared system /
/// few-shot preamble, modeled as `template_len` tokens drawn from the
/// template's seed) followed by a short private suffix.  Template
/// popularity is Zipf-distributed — a few templates dominate, the tail is
/// cold — which is the regime where a radix-tree prefix cache pays: the
/// hot templates' KV pages are computed once and adopted by every later
/// arrival.  The trace itself is identical whether sharing is on or off
/// (the toggle lives in SchedulerConfig::prefix_sharing), so per-session
/// digests are directly comparable across the two runs.
struct PrefixTraceConfig {
  std::int64_t sessions = 64;
  std::uint64_t seed = 20260808;
  std::int64_t templates = 8;
  double zipf_s = 1.1;  ///< popularity exponent (higher = more skew)
  /// Shared tokens per template.  With the default suffix range the mean
  /// prompt is template_len + 16, i.e. ~80% of prompt tokens are shared.
  std::int64_t template_len = 64;
  std::int64_t min_suffix = 8;
  std::int64_t max_suffix = 24;
  std::int64_t min_gen = 8;
  std::int64_t max_gen = 32;
  double mean_interarrival_us = 10.0;
};

inline std::vector<Request> make_prefix_trace(const PrefixTraceConfig& t) {
  Rng rng(t.seed);
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kCausal, masks::PatternKind::kSlidingWindow,
      masks::PatternKind::kStrided, masks::PatternKind::kBigBird};
  // Per-template identity: a stable seed (the token function for positions
  // below template_len) and a mask kind (prefix pages are only shareable
  // within a kind — the tree roots branch on it).
  std::vector<std::uint64_t> template_seeds;
  std::vector<masks::PatternKind> template_kinds;
  for (std::int64_t p = 0; p < t.templates; ++p) {
    template_seeds.push_back(rng.next_u64());
    template_kinds.push_back(kinds[static_cast<std::size_t>(p) %
                                   std::size(kinds)]);
  }
  // Zipf CDF over template ranks: weight(rank i) = 1 / (i + 1)^s.
  std::vector<double> cdf;
  double total = 0;
  for (std::int64_t p = 0; p < t.templates; ++p) {
    total += 1.0 / std::pow(static_cast<double>(p + 1), t.zipf_s);
    cdf.push_back(total);
  }
  std::vector<Request> trace;
  trace.reserve(static_cast<std::size_t>(t.sessions));
  double clock = 0;
  for (std::int64_t i = 0; i < t.sessions; ++i) {
    const double u = rng.next_double() * total;
    std::size_t p = 0;
    while (p + 1 < cdf.size() && cdf[p] < u) ++p;
    Request r;
    r.id = i;
    r.template_seed = template_seeds[p];
    r.template_len = t.template_len;
    r.mask_kind = template_kinds[p];
    const std::int64_t suffix =
        t.min_suffix + static_cast<std::int64_t>(rng.next_below(
                           static_cast<std::uint64_t>(t.max_suffix -
                                                      t.min_suffix + 1)));
    r.prompt_len = t.template_len + suffix;
    r.max_new_tokens =
        t.min_gen + static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(t.max_gen - t.min_gen +
                                                   1)));
    r.seed = rng.next_u64();
    clock += rng.next_double() * 2.0 * t.mean_interarrival_us;
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

/// Engine sized for make_trace() workloads (max context 128 tokens).
inline EngineConfig serve_config(SchedulerMode mode) {
  EngineConfig cfg;
  cfg.heads = 4;
  cfg.head_size = 64;
  cfg.max_seq_len = 128;
  cfg.kv_blocks = 192;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = mode;
  cfg.scheduler.max_prefills_per_step = 8;
  cfg.scheduler.prefill_token_budget = 1024;
  cfg.scheduler.max_decode_batch = 64;
  return cfg;
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::llround(p / 100.0 * static_cast<double>(v.size() - 1)));
  return v[idx];
}

struct RunResult {
  double sim_us = 0;
  double tokens_per_s = 0;  ///< generated tokens per simulated second
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double p50_first_token_us = 0;
  double p99_first_token_us = 0;
  /// Decode inter-token gap: simulated time between a session's consecutive
  /// generated tokens.  The p99 is the SLO the burst bench gates — a FIFO
  /// whole-prefill schedule blows it up whenever a long prompt stalls every
  /// in-flight decode (and preemption gaps land here too).
  double p50_decode_gap_us = 0;
  double p99_decode_gap_us = 0;
  double mean_decode_batch = 0;  ///< decode instances per decoding step
  double kv_peak_utilization = 0;
  EngineStats stats;
  std::size_t sim_kernel_launches = 0;
  std::map<SessionId, std::uint64_t> digests;
};

/// Replay `trace` open-loop through an engine with `cfg` and reduce.
inline RunResult run_trace(const EngineConfig& cfg,
                           const std::vector<Request>& trace) {
  Engine engine(cfg);
  std::int64_t decode_steps = 0;
  std::map<SessionId, double> last_token_at;
  std::vector<double> decode_gaps;
  engine.on_step = [&](const StepOutcome& ev, std::int64_t,
                       double duration_us, std::int64_t) {
    if (!ev.decodes.empty()) ++decode_steps;
    // Tokens land at the end of the step; the gap between a session's
    // consecutive tokens includes everything that delayed it — co-scheduled
    // prefill work in the same step, steps it sat out, preemption exile.
    const double token_at = ev.start_us + duration_us;
    for (const auto id : ev.decodes) {
      const auto it = last_token_at.find(id);
      if (it != last_token_at.end()) decode_gaps.push_back(token_at - it->second);
      last_token_at[id] = token_at;
    }
  };
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
  // Every drained replay re-audits KV block refcounts and the free list.
  STOF_CHECK(engine.pool().check_conservation(),
             "KV pool conservation violated after the drain");

  RunResult r;
  r.sim_us = engine.sim_time_us();
  r.stats = engine.stats();
  r.sim_kernel_launches = engine.stream().launch_count();
  std::vector<double> latency, first_token;
  for (const auto& [id, s] : engine.sessions()) {
    latency.push_back(s.finish_us - s.request.arrival_us);
    first_token.push_back(s.first_token_us - s.request.arrival_us);
    r.digests.emplace(id, s.digest);
  }
  r.p50_latency_us = percentile(latency, 50);
  r.p99_latency_us = percentile(latency, 99);
  r.p50_first_token_us = percentile(first_token, 50);
  r.p99_first_token_us = percentile(first_token, 99);
  r.p50_decode_gap_us = percentile(decode_gaps, 50);
  r.p99_decode_gap_us = percentile(decode_gaps, 99);
  r.tokens_per_s = static_cast<double>(r.stats.decode_tokens) /
                   (r.sim_us * 1e-6);
  r.mean_decode_batch =
      decode_steps == 0 ? 0
                        : static_cast<double>(r.stats.decode_tokens) /
                              static_cast<double>(decode_steps);
  r.kv_peak_utilization =
      static_cast<double>(engine.pool().peak_used_blocks()) /
      static_cast<double>(engine.pool().total_blocks());
  return r;
}

/// True when both runs produced byte-identical per-session outputs.
inline bool digests_match(const RunResult& a, const RunResult& b) {
  return a.digests == b.digests;
}

/// One tensor-parallel cluster replay, reduced for the scaling bench.
struct ClusterRunResult {
  int devices = 1;
  double sim_us = 0;
  double tokens_per_s = 0;   ///< generated tokens per simulated second
  double collective_us = 0;  ///< per-device collective time charged
  EngineStats stats;         ///< shard 0 (lock-step: identical across shards)
  std::map<SessionId, std::uint64_t> digests;  ///< cluster digests
};

/// Replay `trace` open-loop through an N-device tensor-parallel cluster.
/// Same arrival handling as run_trace(), so single-engine and cluster
/// replays of one trace are directly comparable.
inline ClusterRunResult run_cluster_trace(
    const stof::cluster::ClusterConfig& ccfg,
    const std::vector<Request>& trace) {
  stof::cluster::Cluster cluster(ccfg);
  std::size_t next = 0;
  while (next < trace.size() || !cluster.idle()) {
    while (next < trace.size() &&
           trace[next].arrival_us <= cluster.sim_time_us()) {
      cluster.submit(trace[next++]);
    }
    if (cluster.idle()) {
      cluster.advance_to(trace[next].arrival_us);
      continue;
    }
    cluster.step();
  }
  for (int d = 0; d < cluster.devices(); ++d) {
    STOF_CHECK(cluster.engine(d).pool().check_conservation(),
               "KV pool conservation violated after the drain on shard " +
                   std::to_string(d));
  }
  ClusterRunResult r;
  r.devices = cluster.devices();
  r.sim_us = cluster.sim_time_us();
  r.collective_us = cluster.collective_us();
  r.stats = cluster.stats();
  r.digests = cluster.digests();
  r.tokens_per_s =
      static_cast<double>(r.stats.decode_tokens) / (r.sim_us * 1e-6);
  return r;
}

}  // namespace stof::serve::bench
