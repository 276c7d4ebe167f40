#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "stof/core/rng.hpp"

namespace perfbench {

using stof::Rng;
using stof::masks::PatternKind;
using stof::serve::ModelKind;
using stof::serve::Request;

namespace {

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

// Every per-request property is drawn by stratified sampling: the unit
// interval is cut into n equal strata and one probability is drawn in
// each, so the n values cover the target distribution evenly.  Each seed
// therefore offers nearly the same mix of lengths, patterns and gaps and
// differs mainly in which request gets which value (and in token
// content), which keeps the aggregate metrics of different seeds
// comparable while arrival order and burstiness still vary.

/// n stratified probabilities in (0, 1), ascending.
std::vector<double> strata(std::int64_t n, Rng& rng) {
  std::vector<double> q;
  for (std::int64_t i = 0; i < n; ++i) {
    q.push_back((static_cast<double>(i) + rng.next_double()) /
                static_cast<double>(n));
  }
  return q;
}

/// n integers stratified over [lo, hi], ascending.
std::vector<std::int64_t> quantiles(std::int64_t n, std::int64_t lo,
                                    std::int64_t hi, Rng& rng) {
  std::vector<std::int64_t> v;
  for (const double q : strata(n, rng)) {
    v.push_back(lo + static_cast<std::int64_t>(
                         q * static_cast<double>(hi - lo + 1)));
  }
  return v;
}

/// n integers stratified over [lo, hi], shuffled.
std::vector<std::int64_t> spread(std::int64_t n, std::int64_t lo,
                                 std::int64_t hi, Rng& rng) {
  std::vector<std::int64_t> v = quantiles(n, lo, hi, rng);
  shuffle(v, rng);
  return v;
}

/// n Poisson-process gaps (exponential with the given mean), shuffled.
std::vector<double> poisson_gaps(std::int64_t n, double mean_us, Rng& rng) {
  std::vector<double> v;
  for (const double q : strata(n, rng)) {
    v.push_back(-mean_us * std::log1p(-q));
  }
  shuffle(v, rng);
  return v;
}

/// n paced gaps: uniform over [mean / 2, 3 mean / 2], shuffled.
std::vector<double> paced_gaps(std::int64_t n, double mean_us, Rng& rng) {
  std::vector<double> v;
  for (const double q : strata(n, rng)) v.push_back(mean_us * (0.5 + q));
  shuffle(v, rng);
  return v;
}

/// n category indices in [0, k) with Zipf(s) shares (largest remainder
/// rounding), shuffled.
std::vector<std::size_t> zipf_mix(std::int64_t n, std::size_t k, double s,
                                  Rng& rng) {
  std::vector<double> weight(k);
  double total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += weight[i];
  }
  std::vector<std::int64_t> count(k);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double exact = static_cast<double>(n) * weight[i] / total;
    count[i] = static_cast<std::int64_t>(exact);
    assigned += count[i];
    remainder.emplace_back(exact - static_cast<double>(count[i]), i);
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (std::int64_t j = 0; j < n - assigned; ++j) ++count[remainder[j].second];
  std::vector<std::size_t> v;
  for (std::size_t i = 0; i < k; ++i) v.insert(v.end(), count[i], i);
  shuffle(v, rng);
  return v;
}

stof::serve::EngineConfig base_engine(std::int64_t max_seq_len,
                                      std::int64_t kv_blocks) {
  stof::serve::EngineConfig e;
  e.heads = 4;
  e.head_size = 32;
  e.max_seq_len = max_seq_len;
  e.kv_blocks = kv_blocks;
  e.block_tokens = 16;
  e.prefill_params = stof::mha::BlockwiseParams{16, 16};
  e.scheduler.max_prefills_per_step = 8;
  e.scheduler.max_decode_batch = 64;
  return e;
}

/// Templated prompts: Zipf-popular shared templates plus a private suffix.
struct TemplatedTrace {
  std::int64_t requests = 0;
  std::int64_t templates = 0;
  std::int64_t template_len = 0;
  std::vector<PatternKind> kinds;  ///< template t uses kinds[t % size]
  std::int64_t min_suffix = 0, max_suffix = 0;
  std::int64_t min_gen = 0, max_gen = 0;
  double mean_gap_us = 0;
};

std::vector<Request> make_templated(const TemplatedTrace& t, Rng& rng) {
  std::vector<std::uint64_t> template_seeds;
  for (std::int64_t i = 0; i < t.templates; ++i) {
    template_seeds.push_back(rng.next_u64());
  }
  const auto tmpl =
      zipf_mix(t.requests, static_cast<std::size_t>(t.templates), 1.1, rng);
  const auto suffix = spread(t.requests, t.min_suffix, t.max_suffix, rng);
  const auto gen = spread(t.requests, t.min_gen, t.max_gen, rng);
  const auto gaps = poisson_gaps(t.requests, t.mean_gap_us, rng);
  std::vector<Request> trace;
  double clock = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.requests); ++i) {
    Request r;
    r.id = static_cast<std::int64_t>(i);
    r.template_seed = template_seeds[tmpl[i]];
    r.template_len = t.template_len;
    r.mask_kind = t.kinds[tmpl[i] % t.kinds.size()];
    r.prompt_len = t.template_len + suffix[i];
    r.max_new_tokens = gen[i];
    r.seed = rng.next_u64();
    clock += gaps[i];
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

// Offered load is given as a share of the server's saturated throughput on
// the simulated clock, measured by replaying the same trace with every
// arrival at t = 0.  SLO limits are set so that seeded runs meet both
// limits for roughly 90-97% of requests.

Workload chat(std::uint64_t seed) {
  Workload w;
  w.name = "chat";
  w.config.devices = 1;
  auto& e = w.config.engine;
  e = base_engine(/*max_seq_len=*/176, /*kv_blocks=*/96);
  e.model.kind = ModelKind::kGptDecoder;
  e.model.layers = 2;
  e.scheduler.chunk_tokens = 128;
  Rng rng(seed ^ 0xc4a7c4a7ull);
  w.trace = make_templated(
      TemplatedTrace{.requests = 240,
                     .templates = 6,
                     .template_len = 48,
                     .kinds = {PatternKind::kCausal,
                               PatternKind::kSlidingWindow},
                     .min_suffix = 8,
                     .max_suffix = 56,
                     .min_gen = 8,
                     .max_gen = 64,
                     // ~65% load: at 75% the TTFT p90 of a 240-request
                     // trace ranged 168-400 us over eight seeds.
                     .mean_gap_us = 155.0},
      rng);
  w.ttft_limit_us = 170;
  w.itl_limit_us = 78;
  return w;
}

Workload longdoc(std::uint64_t seed) {
  Workload w;
  w.name = "longdoc";
  w.config.devices = 1;
  auto& e = w.config.engine;
  e = base_engine(/*max_seq_len=*/2048, /*kv_blocks=*/640);
  e.scheduler.chunk_tokens = 2048;
  Rng rng(seed ^ 0x10d0c10d0cull);
  const PatternKind kinds[] = {PatternKind::kCausal,
                               PatternKind::kSlidingWindow,
                               PatternKind::kStrided, PatternKind::kBigBird};
  // The pairing of length, pattern and output length is fixed and the seed
  // picks the order: prefill and decode cost depend on all three, and a
  // random pairing moved the ITL p50 by 18% between seeds.  Patterns take
  // turns along the sorted lengths, and (5d mod 9) spreads the output
  // lengths evenly over both.
  const std::int64_t docs = 200;
  const auto prompt = quantiles(docs, 512, 1984, rng);
  std::vector<std::size_t> doc(static_cast<std::size_t>(docs));
  for (std::size_t d = 0; d < doc.size(); ++d) doc[d] = d;
  shuffle(doc, rng);
  // Paced arrivals at ~20% load (the server is busy ~47% of the time), so
  // TTFT measures the sparse prefill rather than queueing.  Poisson
  // arrivals or a higher rate leave the latency percentiles to a handful of
  // long-document collisions (README.md lists the measurements).
  const auto gaps = paced_gaps(docs, 324.0, rng);
  double clock = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(docs); ++i) {
    Request r;
    r.id = static_cast<std::int64_t>(i);
    r.prompt_len = prompt[doc[i]];
    r.max_new_tokens = 8 + static_cast<std::int64_t>(doc[i] * 5 % 9);
    r.seed = rng.next_u64();
    r.mask_kind = kinds[doc[i] % std::size(kinds)];
    clock += gaps[i];
    r.arrival_us = clock;
    w.trace.push_back(r);
  }
  w.ttft_limit_us = 120;
  w.itl_limit_us = 70;
  return w;
}

Workload tp_shared(std::uint64_t seed) {
  Workload w;
  w.name = "tp_shared";
  w.config.devices = 4;
  auto& e = w.config.engine;
  e = base_engine(/*max_seq_len=*/400, /*kv_blocks=*/256);
  e.model.kind = ModelKind::kGptDecoder;
  e.model.layers = 2;
  e.scheduler.chunk_tokens = 256;
  e.spec_draft_tokens = 3;
  e.spec_accept_pct = 80;
  Rng rng(seed ^ 0x7b5a7b5aull);
  w.trace = make_templated(
      TemplatedTrace{.requests = 120,
                     .templates = 4,
                     .template_len = 256,
                     .kinds = {PatternKind::kCausal},
                     .min_suffix = 16,
                     .max_suffix = 64,
                     .min_gen = 16,
                     .max_gen = 64,
                     .mean_gap_us = 38.0},  // ~75% load
      rng);
  w.ttft_limit_us = 172;
  w.itl_limit_us = 62;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chat", "longdoc",
                                                 "tp_shared"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "chat") return chat(seed);
  if (name == "longdoc") return longdoc(seed);
  if (name == "tp_shared") return tp_shared(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

stof::serve::EngineConfig reference_config(const Workload& w) {
  stof::serve::EngineConfig e = w.config.engine;
  e.scheduler.mode = stof::serve::SchedulerMode::kSerial;
  e.scheduler.chunk_tokens = 0;
  e.scheduler.prefill_token_budget =
      std::max(e.scheduler.prefill_token_budget, e.max_seq_len);
  e.scheduler.prefix_sharing = false;
  e.spec_draft_tokens = 0;
  return e;
}

}  // namespace perfbench
