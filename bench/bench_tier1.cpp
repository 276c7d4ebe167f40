// Tier-1 perf-regression harness: times the library's packed-FP32 kernels
// against the scalar reference kernels of the test oracle (tests/oracle/)
// on fixed functional shapes and writes a machine-readable trajectory file
// (BENCH_tier1.json) for future PRs to compare against.
//
// Shapes (full mode):
//   * GEMM  (batch 8, m 512, hidden 1024): the paper's (8, 512) config at
//     hidden size 1024, bias epilogue — the FFN projection shape.
//   * MHA   BERT-Base (12 heads, head size 64) at seq 512, batch 8, on the
//     BigBird and sliding-window masks via the block-wise kernel.
//   * MHA_LONGDOC_PREFILL the `longdoc` serving workload's prefill attention
//     at kernel level: 4 heads, head size 32, block 16, document lengths
//     512-1984 over its four masks, each length's BSR derived from one
//     base BSR per mask at seq 2048, through the varlen API (the engine
//     reads the same rows from KV pages; the cost it charges is varlen's).
//   * SERVE 64-session seeded trace through stof::serve, comparing the
//     continuous-batching schedule against the batch-1 serial baseline in
//     simulated GPU time (scalar_ms = serial, packed_ms = continuous).
//   * SERVE_DECODE_LONG few-session long-generation trace, wall-clock
//     engine replay on the scalar kernel table vs the best ISA's.
//   * SERVE_E2E_LAYER decode-heavy GPT-decoder trace executed through the
//     engine's fused transformer-layer graph vs launch-per-op eager
//     execution, plus the warm-vs-cold tuning-DB load gate.
//   * SERVE_MODEL_HEAD the serving layer head alone (transform_rows, 2-layer
//     GPT at 4 x 32, 19 rows): wall-clock per call on the scalar kernel
//     table vs the best ISA's, its GEMM share split out in the entry's
//     "wall" object.
//
// Usage: bench_tier1 [--quick] [--out PATH] [--trace PATH]
//                    [--baseline PATH] [--tunedb PATH]
//                    [--regress-threshold PCT]
//   --quick     small shapes for CI smoke runs (not a trajectory record)
//   --out       output JSON path (default: BENCH_tier1.json in the cwd)
//   --trace     also write a Chrome trace of the simulated kernel launches
//               with the telemetry registry attached as trace metadata
//   --tunedb    persistent tuning-DB directory for the e2e layer entry;
//               run the bench twice against the same path to exercise the
//               warm-load path.  Without it the entry tunes into a fresh
//               directory of this process (removed at exit), so every run
//               starts cold whatever ran before
//   --baseline  compare against a committed BENCH_tier1.json: prints a
//               per-entry delta table and exits 3 if any entry's packed_ms
//               regresses more than the threshold (default 20%) after
//               calibrating for machine speed (the baseline packed time is
//               scaled by current_scalar_ms / baseline_scalar_ms, so a
//               slower CI machine does not read as a regression; both
//               times are the best of kTimingReps alternating runs).  The
//               baseline must have been written in the same mode (--quick
//               or full): a mismatch exits 4 before any entry runs
//   --regress-threshold  regression tolerance in percent (default 20)
//
// Timing runs keep telemetry disabled so the measured packed/scalar times
// are unperturbed; a separate instrumented pass per entry (telemetry on,
// registry reset) replays the workload once and embeds the deterministic
// counter snapshot as the entry's "counters" object; the few wall-clock
// probes of that pass go to a separate "wall" object, so two runs of equal
// code write equal "counters".
//
// Exit status is non-zero if any packed result is not bit-identical to the
// scalar reference (the oracle, or the scalar kernel table) — the harness
// doubles as an end-to-end regression gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "oracle/oracle.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/rng.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/gpusim/timeline.hpp"
#include "stof/gpusim/trace.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/varlen.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/sparse/bsr_cache.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/telemetry/telemetry.hpp"

#include "bench_serve_common.hpp"

namespace {

using stof::Shape;
using stof::TensorF;
using stof::TensorH;

struct Entry {
  std::string name;
  std::string shape;
  double scalar_ms = 0;
  double packed_ms = 0;
  bool bit_identical = false;
  /// Extra entry-specific invariants (speedup floors, prefix hits,
  /// conversion traffic); folded into pass().
  bool aux_ok = true;
  /// Deterministic counter snapshot from the instrumented pass: equal
  /// across runs of equal code.
  std::map<std::string, std::int64_t> counters;
  /// Wall-clock probes of the instrumented pass (microseconds), kept apart
  /// from `counters` because they vary run to run.
  std::map<std::string, std::int64_t> wall;
  /// Simulated kernel launches of this entry, replayed for --trace.
  std::vector<std::pair<std::string, stof::gpusim::KernelCost>> sim_launches;
  [[nodiscard]] double speedup() const { return scalar_ms / packed_ms; }
  [[nodiscard]] bool pass() const { return bit_identical && aux_ok; }
};

/// Rounds of an entry's wall-clock timing; each side keeps its best.
constexpr int kTimingReps = 3;

double elapsed_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Times an entry's scalar and packed runs in kTimingReps rounds of one
/// each, keeping the best time of each side.  --baseline calibrates an
/// entry by its scalar time, so that time needs the packed side's
/// repetitions, and alternating the sides lets a load change on a shared
/// host reach both instead of one.
void time_entry(Entry& e, const std::function<void()>& scalar,
                const std::function<void()>& packed) {
  e.scalar_ms = e.packed_ms = 1e300;
  for (int r = 0; r < kTimingReps; ++r) {
    e.scalar_ms = std::min(e.scalar_ms, elapsed_ms(scalar));
    e.packed_ms = std::min(e.packed_ms, elapsed_ms(packed));
  }
}

bool bits_equal(const TensorH& a, const TensorH& b) {
  if (a.shape() != b.shape()) return false;
  const auto sa = a.data();
  const auto sb = b.data();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].bits() != sb[i].bits()) return false;
  }
  return true;
}

TensorH random_tensor(Shape shape, std::uint64_t seed) {
  TensorH t(shape);
  stof::Rng rng(seed);
  t.fill_random(rng);
  return t;
}

Entry bench_gemm(std::int64_t batch, std::int64_t m, std::int64_t k,
                 std::int64_t n) {
  const TensorH a = random_tensor(Shape{batch, m, k}, 1);
  const TensorH b = random_tensor(Shape{k, n}, 2);
  // The weight is widened once, outside the timed region, as a model
  // widens its weights at load.
  const TensorF b_wide = b.to_float();
  const TensorH bias = random_tensor(Shape{n}, 3);
  TensorH c_scalar(Shape{batch, m, n});
  TensorH c_packed(Shape{batch, m, n});

  Entry e;
  e.name = "gemm_b" + std::to_string(batch) + "_m" + std::to_string(m) +
           "_h" + std::to_string(n);
  e.shape = "(" + std::to_string(batch) + ", " + std::to_string(m) + ", " +
            std::to_string(k) + ") x (" + std::to_string(k) + ", " +
            std::to_string(n) + "), bias epilogue";
  time_entry(
      e,
      [&] {
        stof::oracle::gemm(a, b, c_scalar, stof::ops::Epilogue::kBias, &bias);
      },
      [&] {
        stof::ops::gemm(a, b_wide, c_packed, stof::ops::Epilogue::kBias,
                        &bias);
      });
  e.bit_identical = bits_equal(c_scalar, c_packed);

  // Instrumented pass: replay the workload once with telemetry enabled and
  // snapshot the deterministic counters (simulated cycles / gmem bytes come
  // from launching the entry's cost model on a simulated stream).
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    stof::ops::gemm(a, b_wide, c_packed, stof::ops::Epilogue::kBias, &bias);
    const auto dev = stof::gpusim::rtx4090();
    const auto cost = stof::ops::gemm_cost(
        stof::ops::GemmDims{batch, m, n, k}, stof::ops::GemmParams{}, dev);
    stof::gpusim::Stream stream(dev);
    stream.launch(e.name, cost);
    e.sim_launches.emplace_back(e.name, cost);
    e.counters = stof::telemetry::global_registry().counters();
  }
  return e;
}

Entry bench_mha(const stof::mha::MhaDims& dims, stof::masks::PatternKind kind,
                const std::string& mask_name, int block) {
  const TensorH q = random_tensor(dims.qkv_shape(), 4);
  const TensorH k = random_tensor(dims.kv_shape(), 5);
  const TensorH v = random_tensor(dims.kv_shape(), 6);
  const stof::masks::Mask mask =
      stof::masks::MaskSpec{.kind = kind, .seq_len = dims.seq_len}.build();
  const auto bsr = stof::sparse::BsrMask::build(mask, block, block);
  const stof::mha::BlockwiseParams params{block, block};

  Entry e;
  e.name = "mha_h" + std::to_string(dims.heads) + "d" +
           std::to_string(dims.head_size) + "_b" + std::to_string(dims.batch) +
           "_s" + std::to_string(dims.seq_len) + "_" + mask_name;
  e.shape = "batch " + std::to_string(dims.batch) + ", heads " +
            std::to_string(dims.heads) + ", seq " +
            std::to_string(dims.seq_len) + ", head_size " +
            std::to_string(dims.head_size) + ", " + mask_name +
            " mask, block " + std::to_string(block);

  TensorH out_scalar, out_packed;
  time_entry(
      e,
      [&] {
        out_scalar =
            stof::oracle::blockwise_attention(dims, q, k, v, bsr, params);
      },
      [&] {
        out_packed = stof::mha::blockwise_attention(dims, q, k, v, bsr, params);
      });
  e.bit_identical = bits_equal(out_scalar, out_packed);

  // Instrumented pass: BSR cache hit/miss accounting, block-skip counters
  // from one functional run, and the simulated block-wise kernel launch.
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    stof::sparse::BsrCache cache(
        stof::masks::MaskSpec{.kind = kind, .seq_len = dims.seq_len}.build());
    const auto& cached = cache.at(block, block);  // miss: builds the BSR
    (void)cache.at(block, block);                 // hit
    out_packed = stof::mha::blockwise_attention(dims, q, k, v, cached, params);
    const auto dev = stof::gpusim::rtx4090();
    const auto cost = stof::mha::blockwise_cost(dims, cached, params, dev);
    stof::gpusim::Stream stream(dev);
    stream.launch(e.name, cost);
    e.sim_launches.emplace_back(e.name, cost);
    e.counters = stof::telemetry::global_registry().counters();
  }
  return e;
}

/// Long-document prefill entry: the `longdoc` workload's attention shape
/// through the public varlen API.  One base BSR per mask at the serving
/// length (block 16, the KV page size), one element per document length;
/// scalar_ms / packed_ms are host wall time over all four masks.
Entry bench_mha_longdoc_prefill(bool quick) {
  using stof::masks::PatternKind;
  const std::int64_t seq = quick ? 256 : 2048;
  const std::vector<std::int64_t> lengths =
      quick ? std::vector<std::int64_t>{64, 128, 192, 240}
            : std::vector<std::int64_t>{512, 1008, 1504, 1984};
  const stof::mha::MhaDims dims{static_cast<std::int64_t>(lengths.size()), 4,
                                seq, 32};
  const TensorH q = random_tensor(dims.qkv_shape(), 7);
  const TensorH k = random_tensor(dims.kv_shape(), 8);
  const TensorH v = random_tensor(dims.kv_shape(), 9);
  const stof::mha::BlockwiseParams params{16, 16};
  const stof::mha::VarlenBatch batch{seq, lengths};
  std::vector<stof::sparse::BsrMask> bases;
  for (const auto kind : {PatternKind::kCausal, PatternKind::kSlidingWindow,
                          PatternKind::kStrided, PatternKind::kBigBird}) {
    bases.push_back(stof::sparse::BsrMask::build(
        stof::masks::MaskSpec{.kind = kind, .seq_len = seq}.build(), 16, 16));
  }

  Entry e;
  e.name = "mha_longdoc_prefill";
  std::string lens;
  for (const auto len : lengths) {
    lens += (lens.empty() ? "" : "/") + std::to_string(len);
  }
  e.shape = "4 masks (causal, sliding_window, strided, bigbird) x lengths " +
            lens + " at seq " + std::to_string(seq) +
            ", heads 4, head_size 32, block 16, varlen prefill";

  std::vector<TensorH> out_scalar(bases.size()), out_packed(bases.size());
  const auto run_all = [&](std::vector<TensorH>& outs, auto varlen) {
    for (std::size_t m = 0; m < bases.size(); ++m) {
      outs[m] = varlen(dims, q, k, v, bases[m], batch, params);
    }
  };
  const auto run_library = [&] {
    run_all(out_packed, stof::mha::varlen_attention);
  };
  time_entry(
      e, [&] { run_all(out_scalar, stof::oracle::varlen_attention); },
      run_library);
  e.bit_identical = true;
  for (std::size_t m = 0; m < bases.size(); ++m) {
    e.bit_identical = e.bit_identical && bits_equal(out_scalar[m], out_packed[m]);
  }

  // Instrumented pass: block load/skip/full/part counters of one packed
  // run, and the simulated varlen launches.
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    run_library();
    const auto dev = stof::gpusim::rtx4090();
    stof::gpusim::Stream stream(dev);
    for (const auto& base : bases) {
      const auto cost =
          stof::mha::varlen_cost(dims, base, batch, params, dev);
      stream.launch(e.name, cost);
      e.sim_launches.emplace_back(e.name, cost);
    }
    e.counters = stof::telemetry::global_registry().counters();
  }
  return e;
}

/// Serving-throughput entry: continuous batching vs the batch-1 serial
/// baseline on one seeded trace.  Both "times" are *simulated* GPU
/// milliseconds (scalar_ms = serial schedule, packed_ms = continuous), so
/// the baseline gate's machine calibration resolves to exactly 1.0 and the
/// tracked quantity is the scheduling speedup itself.  bit_identical means
/// the per-session output digests agreed across the two schedules.
Entry bench_serve_entry(bool quick) {
  namespace sb = stof::serve::bench;
  sb::TraceConfig tc;
  if (quick) tc.sessions = 8;
  const auto trace = sb::make_trace(tc);
  const auto serial = sb::run_trace(
      sb::serve_config(stof::serve::SchedulerMode::kSerial), trace);
  const auto continuous = sb::run_trace(
      sb::serve_config(stof::serve::SchedulerMode::kContinuous), trace);

  Entry e;
  e.name = "serve_continuous_batching";
  e.shape = std::to_string(tc.sessions) +
            " sessions, heads 4, head_size 64, max_seq 128, kv_blocks 192, "
            "simulated ms (serial vs continuous schedule)";
  e.scalar_ms = serial.sim_us / 1000.0;
  e.packed_ms = continuous.sim_us / 1000.0;
  e.bit_identical = sb::digests_match(serial, continuous);

  // Instrumented pass: serve.* counters from one continuous replay, plus
  // the derived serving stats folded in as integer counters.
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    const auto r = sb::run_trace(
        sb::serve_config(stof::serve::SchedulerMode::kContinuous), trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["serve.derived.tokens_per_s"] =
        std::llround(r.tokens_per_s);
    e.counters["serve.derived.p50_latency_us"] =
        std::llround(r.p50_latency_us);
    e.counters["serve.derived.p99_latency_us"] =
        std::llround(r.p99_latency_us);
    e.counters["serve.derived.mean_decode_batch_x100"] =
        std::llround(100.0 * r.mean_decode_batch);
    e.counters["serve.derived.kv_peak_util_pct"] =
        std::llround(100.0 * r.kv_peak_utilization);
  }
  return e;
}

/// Burst-SLO serving entry: a bursty two-tenant trace (steady high-priority
/// interactive decodes + clustered low-priority near-max-context prompts)
/// replayed under two schedules:
///   scalar_ms = p99 decode inter-token gap under whole-prefill
///               continuous batching (priority-ordered admission, no
///               chunking, no fairness), in sim ms;
///   packed_ms = the same p99 under the SLO schedule — chunked prefill
///               (bounded per-step prefill budget), priorities, and WDRR
///               fairness.
/// speedup() is therefore the tail-latency improvement itself.  Gates:
///   * bit_identical — per-session digests agree across the two schedules
///     (chunking/priorities must not change a single output byte);
///   * aux_ok — p99 improves >= 2x AND generated-token throughput stays
///     within 10% of the whole-prefill schedule (chunking must not buy
///     latency with makespan).
Entry bench_serve_burst_p99(bool quick) {
  namespace sb = stof::serve::bench;
  sb::BurstTraceConfig tc;
  if (quick) {
    tc.interactive_sessions = 8;
    tc.bursts = 1;
    tc.burst_size = 6;
    tc.burst_prompt_min = 280;
    tc.burst_prompt_max = 320;
  }
  const auto trace = sb::make_burst_trace(tc);

  // Shape notes (simulated a100).  The whole-prefill burst step admits
  // every burst prompt at once, and its cost is DRAM-bound: ~24 causal
  // prompts of ~580 tokens read ~1.1 GB of KV in one step (~720 us) while
  // every interactive decode waits.  Chunking conserves those DRAM bytes
  // (each row's prefix is read exactly once either way), so a bounded
  // per-step chunk budget caps the decode gap without giving back
  // throughput — as long as the chunk grids stay wave-saturated (heads 16
  // keeps the per-step grid in the thousands of blocks) and the per-launch
  // overhead stays amortized (chunk_tokens is the *aggregate* per-step
  // budget, so one step carries a couple of whole prompts, not one sliver
  // each).
  auto whole_cfg = sb::serve_config(stof::serve::SchedulerMode::kContinuous);
  whole_cfg.heads = 16;
  whole_cfg.max_seq_len = 640;
  whole_cfg.kv_blocks = 1280;
  // Whole prefill deliberately swallows a whole burst per step — that
  // head-of-line blocking is the baseline the SLO schedule is gated against.
  whole_cfg.scheduler.prefill_token_budget = 16384;
  whole_cfg.scheduler.max_prefills_per_step = 32;
  // A modest decode batch spreads the post-burst decode DRAM mass across
  // steps instead of folding it into one monster gap sample.
  whole_cfg.scheduler.max_decode_batch = 8;
  auto slo_cfg = whole_cfg;
  slo_cfg.scheduler.chunk_tokens = quick ? 384 : 1152;
  slo_cfg.scheduler.fairness_quantum_tokens = 16384;
  slo_cfg.scheduler.tenant_weights = {{0, 3}, {1, 1}};

  const auto whole = sb::run_trace(whole_cfg, trace);
  const auto slo = sb::run_trace(slo_cfg, trace);

  Entry e;
  e.name = "serve_burst_p99";
  e.shape = std::to_string(tc.interactive_sessions) + " interactive + " +
            std::to_string(tc.bursts) + "x" + std::to_string(tc.burst_size) +
            " burst prompts, heads 16, max_seq 640, p99 decode gap in "
            "simulated ms (whole-prefill vs chunked+priority+WDRR)";
  e.scalar_ms = whole.p99_decode_gap_us / 1000.0;
  e.packed_ms = slo.p99_decode_gap_us / 1000.0;
  e.bit_identical = sb::digests_match(whole, slo);
  if (e.speedup() < 2.0) {
    std::cerr << e.name << ": p99 decode gap improved only " << e.speedup()
              << "x (gate: >= 2x)\n";
    e.aux_ok = false;
  }
  if (slo.tokens_per_s < 0.9 * whole.tokens_per_s) {
    std::cerr << e.name << ": SLO schedule throughput " << slo.tokens_per_s
              << " tok/s vs whole-prefill " << whole.tokens_per_s
              << " (gate: within 10%)\n";
    e.aux_ok = false;
  }

  // Instrumented pass: serve.* counters of one SLO replay (chunk emission,
  // per-priority preemptions, tenant deficit gauges, deadline misses), plus
  // both schedules' derived SLO numbers for the trajectory record.
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    const auto r = sb::run_trace(slo_cfg, trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["serve.derived.tokens_per_s"] = std::llround(r.tokens_per_s);
    e.counters["serve.derived.p99_decode_gap_us"] =
        std::llround(r.p99_decode_gap_us);
    e.counters["serve.derived.p50_decode_gap_us"] =
        std::llround(r.p50_decode_gap_us);
    e.counters["serve.derived.fifo_p99_decode_gap_us"] =
        std::llround(whole.p99_decode_gap_us);
    e.counters["serve.derived.fifo_tokens_per_s"] =
        std::llround(whole.tokens_per_s);
  }
  return e;
}

/// Decode-dominated serving entry: few sessions, long generations.  Unlike
/// the serve_continuous_batching entry this one measures *wall-clock* ms of
/// the whole trace replay: scalar_ms runs the engine on the scalar kernel
/// table, packed_ms on the best ISA's.  bit_identical checks the
/// per-session digests agree across the two kernel tables — the decode
/// path's bit-identity contract, end to end.
Entry bench_serve_decode_long(bool quick) {
  namespace sb = stof::serve::bench;
  sb::TraceConfig tc;
  tc.sessions = quick ? 2 : 4;
  tc.min_prompt = 16;
  tc.max_prompt = 32;
  tc.min_gen = quick ? 48 : 160;
  tc.max_gen = quick ? 48 : 160;
  const auto trace = sb::make_trace(tc);
  auto cfg = sb::serve_config(stof::serve::SchedulerMode::kContinuous);
  cfg.max_seq_len = 256;
  cfg.kv_blocks = 96;

  Entry e;
  e.name = "serve_decode_long";
  e.shape = std::to_string(tc.sessions) + " sessions, " +
            std::to_string(tc.min_gen) +
            " generated tokens each, heads 4, head_size 64, max_seq 256, "
            "wall-clock ms (scalar vs best-ISA kernel table)";

  sb::RunResult scalar_run, packed_run;
  time_entry(
      e,
      [&] {
        stof::core::ScopedKernelIsa scalar(stof::core::Isa::kScalar);
        scalar_run = sb::run_trace(cfg, trace);
      },
      [&] { packed_run = sb::run_trace(cfg, trace); });
  e.bit_identical = sb::digests_match(scalar_run, packed_run);

  // Instrumented pass: serve.* counters of one replay, including the KV
  // pool's widening bytes (a fresh engine, so the snapshot is
  // deterministic).
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    const auto r = sb::run_trace(cfg, trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["serve.derived.tokens_per_s"] = std::llround(r.tokens_per_s);
  }
  return e;
}

/// Prefix-sharing serving entry: a Zipf templated-prompt burst (~83% of
/// every prompt is one of three hot 512-token templates) replayed twice
/// on the continuous scheduler:
///   scalar_ms = prefix sharing OFF — every session prefills its whole
///               prompt from scratch, in simulated ms;
///   packed_ms = prefix sharing ON — template pages are computed once,
///               published to the radix tree, and adopted (refcounted,
///               CoW-protected) by every later arrival, which prefills
///               only its private suffix.
/// speedup() is the serving-throughput gain from sharing.  Gates:
///   * bit_identical — per-session digests agree across the two runs
///     (adopted pages must reproduce the exact bytes a from-scratch
///     prefill would);
///   * aux_ok — >= 2x speedup, the tree actually hit (serve.prefix.hits),
///     computed prefill tokens land at the theoretical cold-start floor
///     (sum of private suffixes + each template computed ONCE — i.e. the
///     saving amortises per template, better than the per-session share
///     fraction alone predicts), and the KV pool's half->FP32 widening
///     bytes drop below half (adopted pages are never written again).
Entry bench_serve_prefix_shared(bool quick) {
  namespace sb = stof::serve::bench;
  sb::PrefixTraceConfig tc;
  tc.sessions = quick ? 32 : 80;
  tc.templates = 3;
  tc.template_len = 512;
  tc.zipf_s = 1.4;
  tc.min_suffix = quick ? 64 : 80;
  tc.max_suffix = quick ? 112 : 128;
  tc.min_gen = 1;
  tc.max_gen = 1;
  const auto trace = sb::make_prefix_trace(tc);
  auto off_cfg = sb::serve_config(stof::serve::SchedulerMode::kContinuous);
  off_cfg.heads = 16;
  off_cfg.max_seq_len = 768;
  off_cfg.kv_blocks = 1280;
  off_cfg.scheduler.prefill_token_budget = 8192;
  off_cfg.scheduler.max_prefills_per_step = 16;
  off_cfg.scheduler.prefix_sharing = false;
  auto on_cfg = off_cfg;
  on_cfg.scheduler.prefix_sharing = true;

  // Cold-start floor: every private suffix once, every distinct template
  // once.  A sharing-off run computes sum(prompt_len) instead.
  std::int64_t floor_tokens = 0;
  std::set<std::uint64_t> seen_templates;
  for (const auto& r : trace) {
    floor_tokens += r.prompt_len - r.template_len;
    if (seen_templates.insert(r.template_seed).second) {
      floor_tokens += r.template_len;
    }
  }

  // Two instrumented replays (telemetry perturbs neither simulated time
  // nor outputs): sharing off for the reference traffic, sharing on for
  // the entry's counters.
  Entry e;
  e.name = "serve_prefix_shared";
  e.shape = std::to_string(tc.sessions) + " sessions, " +
            std::to_string(tc.templates) + " Zipf templates x " +
            std::to_string(tc.template_len) +
            " shared tokens, heads 16, max_seq 768, simulated ms "
            "(prefix sharing off vs on)";
  std::int64_t off_prefill_tokens = 0, off_sidecar = 0;
  {
    stof::telemetry::ScopedTelemetry on_t(true);
    stof::telemetry::global_registry().reset();
    const auto off = sb::run_trace(off_cfg, trace);
    off_prefill_tokens =
        stof::telemetry::global_registry().counter("serve.prefill.tokens");
    off_sidecar = stof::telemetry::global_registry().counter(
        "serve.kv.sidecar_bytes_converted");

    stof::telemetry::global_registry().reset();
    const auto on = sb::run_trace(on_cfg, trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["serve.derived.tokens_per_s"] = std::llround(on.tokens_per_s);
    e.counters["serve.derived.nosharing_tokens_per_s"] =
        std::llround(off.tokens_per_s);
    e.counters["serve.derived.nosharing_prefill_tokens"] = off_prefill_tokens;
    e.counters["serve.derived.nosharing_sidecar_bytes_converted"] =
        off_sidecar;
    e.counters["serve.derived.prefill_floor_tokens"] = floor_tokens;

    e.scalar_ms = off.sim_us / 1000.0;
    e.packed_ms = on.sim_us / 1000.0;
    e.bit_identical = sb::digests_match(off, on);
  }
  if (e.speedup() < 2.0) {
    std::cerr << e.name << ": sharing sped serving up only " << e.speedup()
              << "x (gate: >= 2x)\n";
    e.aux_ok = false;
  }
  if (e.counters["serve.prefix.hits"] <= 0) {
    std::cerr << e.name << ": prefix tree never hit\n";
    e.aux_ok = false;
  }
  // Superlinear traffic drop.  Linear share-skipping would still recompute
  // every template per miss; landing at the floor means each template was
  // computed once for the whole trace.  10% slack over the floor.
  const std::int64_t on_prefill_tokens = e.counters["serve.prefill.tokens"];
  if (on_prefill_tokens * 10 > floor_tokens * 11) {
    std::cerr << e.name << ": sharing computed " << on_prefill_tokens
              << " prefill tokens vs cold-start floor " << floor_tokens
              << " (reference " << off_prefill_tokens
              << "; gate: within 10% of the floor)\n";
    e.aux_ok = false;
  }
  // Adopted pages are widened once, by their donor, so the KV pool's
  // widening bytes fall with unique pages, not with sessions.  A reference
  // run that widens nothing leaves nothing to save, and fails too.
  const std::int64_t on_sidecar =
      e.counters["serve.kv.sidecar_bytes_converted"];
  if (off_sidecar <= 0 || on_sidecar * 2 > off_sidecar) {
    std::cerr << e.name << ": sharing saved too little conversion traffic "
              << "(sidecar " << on_sidecar << "/" << off_sidecar
              << " bytes, gate: under half of a nonzero reference)\n";
    e.aux_ok = false;
  }
  return e;
}

/// Speculative-decoding serving entry: a decode-dominated trace replayed
/// with plain one-token-per-step decoding (scalar_ms, simulated) and with
/// draft-and-verify speculative decoding (packed_ms) — k drafts proposed
/// per round by a 1-head windowed draft pass and verified together with
/// the true token in ONE batched paged-decode launch; rejected KV slots
/// roll back exactly.  Gates:
///   * bit_identical — per-session digests agree (accepted rows must be
///     byte-identical to the sequential decode, rejections fully undone);
///   * aux_ok — >= 1.5x decode throughput and >= 70% measured draft
///     acceptance (serve.spec.accepted / serve.spec.drafted).
Entry bench_serve_speculative(bool quick) {
  namespace sb = stof::serve::bench;
  sb::TraceConfig tc;
  tc.sessions = quick ? 2 : 4;
  tc.min_prompt = 16;
  tc.max_prompt = 32;
  tc.min_gen = quick ? 48 : 160;
  tc.max_gen = quick ? 48 : 160;
  const auto trace = sb::make_trace(tc);
  auto cfg = sb::serve_config(stof::serve::SchedulerMode::kContinuous);
  cfg.max_seq_len = 256;
  cfg.kv_blocks = 96;
  auto spec_cfg = cfg;
  spec_cfg.spec_draft_tokens = 4;
  spec_cfg.spec_accept_pct = 92;

  // Two instrumented replays (telemetry perturbs neither simulated time
  // nor outputs): plain decode, then draft-and-verify with the entry's
  // serve.spec.* draft / accept / rollback balance.
  Entry e;
  e.name = "serve_speculative";
  e.shape = std::to_string(tc.sessions) + " sessions, " +
            std::to_string(tc.min_gen) +
            " generated tokens each, heads 4, max_seq 256, simulated ms "
            "(plain decode vs draft-and-verify, k=4)";
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    const auto plain = sb::run_trace(cfg, trace);
    stof::telemetry::global_registry().reset();
    const auto spec = sb::run_trace(spec_cfg, trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["serve.derived.tokens_per_s"] = std::llround(spec.tokens_per_s);
    e.counters["serve.derived.plain_tokens_per_s"] =
        std::llround(plain.tokens_per_s);
    e.scalar_ms = plain.sim_us / 1000.0;
    e.packed_ms = spec.sim_us / 1000.0;
    e.bit_identical = sb::digests_match(plain, spec);
  }
  if (e.speedup() < 1.5) {
    std::cerr << e.name << ": speculation sped decoding up only "
              << e.speedup() << "x (gate: >= 1.5x)\n";
    e.aux_ok = false;
  }
  const std::int64_t drafted = e.counters["serve.spec.drafted"];
  const std::int64_t accepted = e.counters["serve.spec.accepted"];
  if (drafted <= 0 || accepted * 100 < drafted * 70) {
    std::cerr << e.name << ": draft acceptance " << accepted << "/" << drafted
              << " (gate: >= 70%)\n";
    e.aux_ok = false;
  }
  return e;
}

/// End-to-end tuned-layer serving entry: a decode-heavy GPT-decoder trace
/// (2 pre-LN layers over a heads 4 x head_size 32 hidden width) replayed
/// with the engine's fused, tuned layer-graph execution (packed_ms,
/// simulated) and with launch-per-op eager execution (scalar_ms) — both
/// run the identical attention launches and the identical numeric layer
/// head, so the headline speedup isolates the fusion dimension.  Gates:
///   * bit_identical — per-session digests agree across the two timelines;
///   * aux_ok — >= 1.5x fused speedup, AND the persistent tuning DB makes
///     warm model loads cheap: a cold engine (fresh DB subdir) pays
///     wall.tunedb.tune_us of search while a warm reload of the same DB
///     pays only wall.tunedb.load_us, gated under 5% of the cold cost.
/// The instrumented pass replays the fused trace against `tunedb_dir`
/// FIRST, so its tunedb.{hits,misses,store_writes} counters reflect the
/// database state this process started with — CI runs the entry twice
/// against a cached DB path and asserts cold misses then warm hits.
Entry bench_serve_e2e_layer(bool quick, const std::string& tunedb_dir) {
  namespace sb = stof::serve::bench;
  namespace fs = std::filesystem;
  sb::TraceConfig tc;
  tc.sessions = quick ? 8 : 24;
  tc.min_prompt = 12;
  tc.max_prompt = 24;
  tc.min_gen = quick ? 24 : 64;
  tc.max_gen = quick ? 24 : 64;
  const auto trace = sb::make_trace(tc);

  auto fused_cfg = sb::serve_config(stof::serve::SchedulerMode::kContinuous);
  fused_cfg.head_size = 32;  // hidden 128: keeps the layer head's wall cost small
  fused_cfg.model.kind = stof::serve::ModelKind::kGptDecoder;
  fused_cfg.model.layers = 2;
  fused_cfg.model.fused = true;
  fused_cfg.model.tune_db_dir = tunedb_dir;
  auto unfused_cfg = fused_cfg;
  unfused_cfg.model.fused = false;
  unfused_cfg.model.tune_db_dir.clear();  // eager mode never tunes

  Entry e;
  e.name = "serve_e2e_layer";
  e.shape = std::to_string(tc.sessions) + " sessions, " +
            std::to_string(tc.min_gen) +
            " generated tokens each, gpt_decoder x2 layers, heads 4, "
            "head_size 32, simulated ms (launch-per-op vs tuned fused "
            "layer graph)";

  // Instrumented fused replay FIRST: the tunedb counters must reflect the
  // DB state at process start (cold run: misses + store_writes; rerun
  // against the same DB: pure hits).
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    const auto r = sb::run_trace(fused_cfg, trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["serve.derived.tokens_per_s"] = std::llround(r.tokens_per_s);
  }

  // Timing replays (telemetry off; the DB is warm now, so engine
  // construction inside run_trace loads instead of re-tuning).
  const auto fused = sb::run_trace(fused_cfg, trace);
  const auto unfused = sb::run_trace(unfused_cfg, trace);
  e.scalar_ms = unfused.sim_us / 1000.0;
  e.packed_ms = fused.sim_us / 1000.0;
  e.bit_identical = sb::digests_match(fused, unfused);
  if (e.speedup() < 1.5) {
    std::cerr << e.name << ": fused layer execution sped serving up only "
              << e.speedup() << "x (gate: >= 1.5x)\n";
    e.aux_ok = false;
  }

  // Warm-vs-cold tuning cost, isolated in a fresh DB subdirectory so this
  // probe is cold regardless of the entry DB's state.  Engine construction
  // prewarms the decode and prefill shape buckets: the cold engine pays
  // the two-stage search (wall.tunedb.tune_us), the warm reload pays only
  // plan-file loads (wall.tunedb.load_us).
  const std::string probe_dir =
      (fs::path(tunedb_dir) / "cold_probe").string();
  fs::remove_all(probe_dir);
  auto probe_cfg = fused_cfg;
  probe_cfg.model.tune_db_dir = probe_dir;
  double cold_tune_us = 0, warm_load_us = 0;
  std::int64_t warm_misses = 0;
  {
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    stof::serve::Engine cold(probe_cfg);
    cold_tune_us =
        stof::telemetry::global_registry().timer("wall.tunedb.tune_us")
            .total_us;
    stof::telemetry::global_registry().reset();
    stof::serve::Engine warm(probe_cfg);
    warm_load_us =
        stof::telemetry::global_registry().timer("wall.tunedb.load_us")
            .total_us;
    warm_misses = stof::telemetry::global_registry().counter("tunedb.misses");
  }
  e.wall["serve.derived.cold_tune_us"] = std::llround(cold_tune_us);
  e.wall["serve.derived.warm_load_us"] = std::llround(warm_load_us);
  if (cold_tune_us <= 0 || warm_misses != 0 ||
      warm_load_us >= 0.05 * cold_tune_us) {
    std::cerr << e.name << ": warm model load cost " << warm_load_us
              << " us vs cold tuning " << cold_tune_us
              << " us with " << warm_misses
              << " warm misses (gate: all hits, under 5% of cold)\n";
    e.aux_ok = false;
  }
  return e;
}

/// The serving layer head on its own: ModelRuntime::transform_rows over the
/// 2-layer GPT head at 4 x 32 (hidden 128, FFN 512) with 19 rows, the mean
/// rows per step of perfbench's `chat` workload.  Wall-clock ms per call:
/// scalar_ms on the scalar kernel table, packed_ms on the best ISA's.
/// bit_identical compares the output bytes.  The instrumented pass splits
/// one call's wall time into wall.ops.gemm_us and the rest of
/// wall.serve.head_us (mean of 50 calls), written to the entry's "wall"
/// object.
Entry bench_serve_model_head(bool quick) {
  stof::serve::ModelSpec spec;
  spec.kind = stof::serve::ModelKind::kGptDecoder;
  spec.layers = 2;
  const stof::serve::ModelRuntime head(spec, /*heads=*/4, /*head_size=*/32,
                                       stof::gpusim::rtx4090(),
                                       /*with_weights=*/true);
  constexpr std::int64_t kRows = 19;
  const TensorH input = random_tensor(Shape{kRows, head.hidden()}, 0x4ead);
  const int calls = quick ? 20 : 200;
  TensorH scalar_out, packed_out;
  const auto run = [&](TensorH& out) {
    for (int i = 0; i < calls; ++i) {
      out = input;
      head.transform_rows(out);
    }
  };

  Entry e;
  e.name = "serve_model_head";
  e.shape = "gpt_decoder x2 layers, heads 4, head_size 32, 19 rows, "
            "wall-clock ms per transform_rows call (scalar vs "
            "best-ISA kernel table)";
  time_entry(
      e,
      [&] {
        stof::core::ScopedKernelIsa scalar(stof::core::Isa::kScalar);
        run(scalar_out);
      },
      [&] { run(packed_out); });
  e.scalar_ms /= calls;
  e.packed_ms /= calls;
  e.bit_identical = bits_equal(scalar_out, packed_out);

  {
    constexpr int kProbeCalls = 50;
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    TensorH out;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kProbeCalls; ++i) {
      out = input;
      head.transform_rows(out);
    }
    const double total_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    const auto& reg = stof::telemetry::global_registry();
    const double gemm_us = reg.timer("wall.ops.gemm_us").total_us;
    e.counters = reg.counters();
    e.wall["wall.serve.head_us"] = std::llround(total_us / kProbeCalls);
    e.wall["wall.ops.gemm_us"] = std::llround(gemm_us / kProbeCalls);
  }
  return e;
}

// Tensor-parallel cluster scaling: one decode-heavy trace replayed through
// stof::cluster at N = 1/2/4/8 devices plus a plain single-engine reference.
// Gates: cluster digests byte-identical to the reference at EVERY width, and
// >= 3x aggregate tokens/s at N=8 vs N=1 despite the per-step all-reduce tax
// priced by the alpha-beta model.  scalar_ms/packed_ms are the N=1 and N=8
// simulated makespans, so the headline speedup column IS the scaling factor.
Entry bench_serve_cluster_scaling(bool quick) {
  namespace sb = stof::serve::bench;
  // The trace is built to be decode-dominated, because that is where tensor
  // parallelism earns its keep here and where the entry's gate is honest:
  //   - deep decode batch: the N=8 shard's per-step kernel time is
  //     ~batch/8 DRAM microseconds and must dominate the per-step fixed
  //     costs that do NOT shard (kernel launch overhead plus the
  //     2(N-1)·alpha latency terms of two all-reduces);
  //   - dense causal attention: sharded per-row KV traffic is proportional
  //     to attended context, so sparse masks (~40 attended columns) would
  //     leave the full-width activation all-reduce dominating every step —
  //     a real TP pathology, but the cluster tests already cover every
  //     sparse mask's bit-identity; this entry measures scaling;
  //   - Zipf-shared template prompts: prefix sharing prefills each template
  //     once and adopters skip those rows, so the prefill phase (whose
  //     activation all-reduces are pure tax — its compute shards to ~1/N
  //     but its collective bytes do not shrink) nearly vanishes, while
  //     decode still attends the full adopted context.
  sb::PrefixTraceConfig tc;
  tc.sessions = quick ? 112 : 176;
  tc.seed = 20260809;
  tc.templates = 2;
  tc.zipf_s = 1.1;
  tc.template_len = 192;
  tc.min_suffix = 8;
  tc.max_suffix = 24;
  tc.min_gen = 32;
  tc.max_gen = 48;
  tc.mean_interarrival_us = 2.0;
  auto trace = sb::make_prefix_trace(tc);
  for (auto& r : trace) r.mask_kind = stof::masks::PatternKind::kCausal;

  // Wide attention (32 heads) so an 8-way shard still owns 4 heads of
  // DRAM-bound decode work; the pool holds the whole trace so scaling, not
  // paging pressure, is what the entry measures.
  stof::serve::EngineConfig cfg;
  cfg.heads = 32;
  cfg.head_size = 64;
  cfg.max_seq_len = 272;
  cfg.kv_blocks = 17 * tc.sessions;
  cfg.block_tokens = 16;
  cfg.prefill_params = stof::mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = stof::serve::SchedulerMode::kContinuous;
  cfg.scheduler.max_prefills_per_step = 16;
  cfg.scheduler.prefill_token_budget = 4096;
  cfg.scheduler.max_decode_batch = 256;

  const auto reference = sb::run_trace(cfg, trace);

  const int widths[] = {1, 2, 4, 8};
  std::map<int, sb::ClusterRunResult> runs;
  bool identical = true;
  for (const int n : widths) {
    stof::cluster::ClusterConfig ccfg;
    ccfg.devices = n;
    ccfg.engine = cfg;
    ccfg.link = stof::cluster::nvlink_like();
    runs[n] = sb::run_cluster_trace(ccfg, trace);
    if (runs[n].digests != reference.digests) {
      std::cerr << "serve_cluster_scaling: N=" << n
                << " cluster digests diverged from the single-engine "
                   "reference\n";
      identical = false;
    }
  }

  Entry e;
  e.name = "serve_cluster_scaling";
  e.shape = std::to_string(tc.sessions) +
            " sessions, heads 32, head_size 64, 2 Zipf templates x 192 "
            "shared tokens, causal, nvlink-like link, simulated ms "
            "(N=1 vs N=8 tensor-parallel)";
  e.scalar_ms = runs[1].sim_us / 1000.0;
  e.packed_ms = runs[8].sim_us / 1000.0;
  e.bit_identical = identical;
  {
    // Instrumented N=8 replay for the cluster.* counters (telemetry changes
    // neither simulated time nor outputs).
    stof::telemetry::ScopedTelemetry on(true);
    stof::telemetry::global_registry().reset();
    stof::cluster::ClusterConfig ccfg;
    ccfg.devices = 8;
    ccfg.engine = cfg;
    const auto instrumented = sb::run_cluster_trace(ccfg, trace);
    e.counters = stof::telemetry::global_registry().counters();
    e.counters["cluster.collective.us"] =
        std::llround(instrumented.collective_us);
    for (const int n : widths) {
      const std::string suffix = "_n" + std::to_string(n);
      e.counters["cluster.derived.tokens_per_s" + suffix] =
          std::llround(runs[n].tokens_per_s);
      // Scaling factor and parallel efficiency vs N=1, in percent.
      e.counters["cluster.derived.scaling_pct" + suffix] =
          std::llround(runs[1].sim_us / runs[n].sim_us * 100.0);
      e.counters["cluster.derived.efficiency_pct" + suffix] =
          std::llround(runs[1].sim_us / runs[n].sim_us / n * 100.0);
    }
  }
  const double scaling = runs[1].sim_us / runs[8].sim_us;
  if (scaling < 3.0) {
    std::cerr << "serve_cluster_scaling: N=8 scaled only " << scaling
              << "x over N=1 (gate: >= 3x)\n";
    e.aux_ok = false;
  }
  if (!(runs[8].collective_us > 0) ||
      e.counters["cluster.collective.us"] <= 0) {
    std::cerr << "serve_cluster_scaling: no collective time was charged at "
                 "N=8\n";
    e.aux_ok = false;
  }
  return e;
}

bool write_json(const std::string& path, const std::vector<Entry>& entries,
                bool quick) {
  std::ofstream os(path);
  os << "{\n";
  os << "  \"schema\": \"stof-bench-tier1-v1\",\n";
  os << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  os << "  \"unit\": \"ms\",\n";
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    os << "    {\"name\": \"" << e.name << "\", \"shape\": \"" << e.shape
       << "\", \"scalar_ms\": " << e.scalar_ms
       << ", \"packed_ms\": " << e.packed_ms
       << ", \"speedup\": " << e.speedup()
       << ", \"bit_identical\": " << (e.bit_identical ? "true" : "false");
    const auto write_object = [&os](const char* key, const auto& values) {
      os << ",\n     \"" << key << "\": {";
      std::size_t vi = 0;
      for (const auto& [name, value] : values) {
        os << (vi++ ? ", " : "") << "\"" << name << "\": " << value;
      }
      os << "}";
    };
    write_object("counters", e.counters);
    if (!e.wall.empty()) write_object("wall", e.wall);
    os << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.good();
}

// Replay every entry's simulated kernel launches on one stream with
// telemetry enabled, then write a Chrome trace carrying the registry
// snapshot as trace metadata.
bool write_trace(const std::string& path, const std::vector<Entry>& entries) {
  stof::telemetry::ScopedTelemetry on(true);
  stof::telemetry::global_registry().reset();
  stof::gpusim::Stream stream(stof::gpusim::rtx4090());
  for (const auto& e : entries) {
    for (const auto& [name, cost] : e.sim_launches) stream.launch(name, cost);
  }
  std::ofstream os(path);
  stof::gpusim::write_chrome_trace(stream, os, "bench_tier1",
                                   /*attach_telemetry=*/true);
  return os.good();
}

// ---- Baseline regression gate ----------------------------------------------

struct BaselineEntry {
  double scalar_ms = 0;
  double packed_ms = 0;
};

struct Baseline {
  std::string mode;  ///< "quick" or "full", as write_json records it
  std::map<std::string, BaselineEntry> entries;
};

/// Minimal scanner for the flat JSON write_json emits: pulls the file's
/// "mode" and each entry's "name", "scalar_ms", and "packed_ms".  Not a
/// general JSON parser — it only needs to read files this harness wrote
/// (and committed baselines).
Baseline read_baseline(const std::string& path, bool& ok) {
  Baseline baseline;
  auto& out = baseline.entries;
  std::ifstream is(path);
  if (!is) {
    ok = false;
    return baseline;
  }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const std::string mode_key = "\"mode\": \"";
  if (const auto at = text.find(mode_key); at != std::string::npos) {
    const std::size_t lo = at + mode_key.size();
    baseline.mode = text.substr(lo, text.find('"', lo) - lo);
  }
  const auto number_after = [&text](std::size_t from, const std::string& key,
                                    std::size_t limit) -> double {
    const auto at = text.find(key, from);
    if (at == std::string::npos || at >= limit) return -1.0;
    return std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  std::size_t pos = 0;
  while ((pos = text.find("{\"name\": \"", pos)) != std::string::npos) {
    const std::size_t name_lo = pos + 10;
    const std::size_t name_hi = text.find('"', name_lo);
    if (name_hi == std::string::npos) break;
    const std::size_t next = text.find("{\"name\": \"", name_hi);
    const std::size_t limit = next == std::string::npos ? text.size() : next;
    BaselineEntry b;
    b.scalar_ms = number_after(name_hi, "\"scalar_ms\": ", limit);
    b.packed_ms = number_after(name_hi, "\"packed_ms\": ", limit);
    if (b.scalar_ms > 0 && b.packed_ms > 0) {
      out.emplace(text.substr(name_lo, name_hi - name_lo), b);
    }
    pos = name_hi;
  }
  ok = !out.empty();
  return baseline;
}

/// Compare against the committed baseline; returns false on regression.
/// Machines differ, so the gate is calibrated: the baseline packed time is
/// rescaled by this run's scalar/baseline-scalar ratio before comparing.
bool check_baseline(const std::vector<Entry>& entries,
                    const std::map<std::string, BaselineEntry>& baseline,
                    double threshold_pct) {
  bool pass = true;
  std::cout << "\nbaseline comparison (threshold " << threshold_pct
            << "% on calibrated packed_ms):\n";
  std::cout << "  entry                          packed_ms   baseline"
               "   calibrated      delta\n";
  for (const auto& e : entries) {
    const auto it = baseline.find(e.name);
    std::cout << "  " << e.name;
    for (std::size_t pad = e.name.size(); pad < 31; ++pad) std::cout << ' ';
    if (it == baseline.end()) {
      std::cout << "(new entry, no baseline)\n";
      continue;
    }
    const BaselineEntry& b = it->second;
    const double machine_scale = e.scalar_ms / b.scalar_ms;
    const double calibrated = b.packed_ms * machine_scale;
    const double delta_pct = 100.0 * (e.packed_ms - calibrated) / calibrated;
    const bool regressed = delta_pct > threshold_pct;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%9.2f  %9.2f  %11.2f  %+8.1f%%",
                  e.packed_ms, b.packed_ms, calibrated, delta_pct);
    std::cout << buf << (regressed ? "  REGRESSION" : "") << "\n";
    pass = pass && !regressed;
  }
  return pass;
}

/// A directory removed (with its contents) when the guard goes out of scope.
struct RemovedAtExit {
  std::filesystem::path path;
  ~RemovedAtExit() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_tier1.json";
  std::string trace_path;
  std::string baseline_path;
  std::string tunedb_path;
  double threshold_pct = 20.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tunedb") == 0 && i + 1 < argc) {
      tunedb_path = argv[++i];
    } else if (std::strcmp(argv[i], "--regress-threshold") == 0 &&
               i + 1 < argc) {
      threshold_pct = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "usage: bench_tier1 [--quick] [--out PATH] [--trace PATH]"
                   " [--baseline PATH] [--tunedb PATH]"
                   " [--regress-threshold PCT]\n";
      return 2;
    }
  }
  RemovedAtExit fresh_tunedb;
  if (tunedb_path.empty()) {
    fresh_tunedb.path = std::filesystem::temp_directory_path() /
                        ("stof_bench_tunedb." + std::to_string(getpid()));
    std::filesystem::remove_all(fresh_tunedb.path);
    tunedb_path = fresh_tunedb.path.string();
  }
  // Quick and full runs time different shapes and traces, so a baseline is
  // only comparable with a run of its own mode.
  Baseline baseline;
  if (!baseline_path.empty()) {
    bool read_ok = true;
    baseline = read_baseline(baseline_path, read_ok);
    if (!read_ok) {
      std::cerr << "error: could not read baseline " << baseline_path << "\n";
      return 2;
    }
    const std::string mode = quick ? "quick" : "full";
    if (baseline.mode != mode) {
      std::cerr << "error: baseline " << baseline_path << " was written in "
                << (baseline.mode.empty() ? "an unknown" : baseline.mode)
                << " mode; this run is " << mode
                << " mode, whose entries it cannot compare\n";
      return 4;
    }
  }

  std::vector<Entry> entries;
  if (quick) {
    entries.push_back(bench_gemm(1, 64, 128, 128));
    entries.push_back(bench_mha({1, 4, 128, 64},
                                stof::masks::PatternKind::kBigBird, "bigbird",
                                32));
    entries.push_back(bench_mha_longdoc_prefill(/*quick=*/true));
    entries.push_back(bench_serve_entry(/*quick=*/true));
    entries.push_back(bench_serve_burst_p99(/*quick=*/true));
    entries.push_back(bench_serve_decode_long(/*quick=*/true));
    entries.push_back(bench_serve_prefix_shared(/*quick=*/true));
    entries.push_back(bench_serve_speculative(/*quick=*/true));
    entries.push_back(bench_serve_e2e_layer(/*quick=*/true, tunedb_path));
    entries.push_back(bench_serve_model_head(/*quick=*/true));
    entries.push_back(bench_serve_cluster_scaling(/*quick=*/true));
  } else {
    entries.push_back(bench_gemm(8, 512, 1024, 1024));
    const stof::mha::MhaDims bert_base{8, 12, 512, 64};
    entries.push_back(bench_mha(bert_base, stof::masks::PatternKind::kBigBird,
                                "bigbird", 64));
    entries.push_back(bench_mha(bert_base,
                                stof::masks::PatternKind::kSlidingWindow,
                                "sliding_window", 64));
    entries.push_back(bench_mha_longdoc_prefill(/*quick=*/false));
    entries.push_back(bench_serve_entry(/*quick=*/false));
    entries.push_back(bench_serve_burst_p99(/*quick=*/false));
    entries.push_back(bench_serve_decode_long(/*quick=*/false));
    entries.push_back(bench_serve_prefix_shared(/*quick=*/false));
    entries.push_back(bench_serve_speculative(/*quick=*/false));
    entries.push_back(bench_serve_e2e_layer(/*quick=*/false, tunedb_path));
    entries.push_back(bench_serve_model_head(/*quick=*/false));
    entries.push_back(bench_serve_cluster_scaling(/*quick=*/false));
  }

  bool all_identical = true;
  for (const auto& e : entries) {
    std::cout << e.name << ": scalar " << e.scalar_ms << " ms, packed "
              << e.packed_ms << " ms, speedup " << e.speedup() << "x";
    std::cout << (e.pass() ? "" : "  [BIT MISMATCH]") << "\n";
    all_identical = all_identical && e.pass();
  }
  if (!write_json(out_path, entries, quick)) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << "\n";
  if (!trace_path.empty()) {
    if (!write_trace(trace_path, entries)) {
      std::cerr << "error: could not write " << trace_path << "\n";
      return 2;
    }
    std::cout << "wrote " << trace_path << "\n";
  }
  if (!all_identical) {
    std::cerr << "FAIL: packed path diverged from the scalar reference\n";
    return 1;
  }
  if (!baseline_path.empty()) {
    if (!check_baseline(entries, baseline.entries, threshold_pct)) {
      std::cerr << "FAIL: packed_ms regressed more than " << threshold_pct
                << "% vs " << baseline_path << "\n";
      return 3;
    }
  }
  return 0;
}
