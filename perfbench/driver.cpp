// Serving benchmark driver.
//
//   perfbench_driver --workload <chat|longdoc|tp_shared> --seed <n>
//                    --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Replays the seeded workload through fresh servers until --seconds have
// passed (at least three times; the first is a warm-up), checks outputs,
// and prints one JSON object as its last line: end-to-end metrics with
// --trace 0, per-layer metrics from one extra traced replay with
// --trace 1.  Exits 1 when a check fails.
// README.md in this directory defines every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "replay.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/rng.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using stof::serve::Request;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds > 0 and --trace are required");
  }
  return a;
}

/// Pin the process (and every thread it starts later) to one CPU: the
/// highest-numbered CPU it may run on.  Returns that CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

/// True when a sample of `n` leaves at least 10 values above the
/// nearest-rank percentile p.
bool supports(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n >= rank + 10;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }
double pct(double num, double den) { return 100.0 * ratio(num, den); }

/// The simulated-clock end-to-end metrics: pure functions of the seed.
struct SimMetrics {
  double ttft_p50_us = 0, ttft_p90_us = 0;
  double itl_p50_us = 0, itl_p99_us = 0;
  double slo_pct = 0;
  double busy_tok_per_s = 0;
  bool operator==(const SimMetrics&) const = default;
};

SimMetrics sim_metrics(const Workload& w, const ReplayResult& r) {
  std::vector<double> ttft;
  std::int64_t met = 0;
  for (const RequestRecord& rec : r.requests) {
    if (!rec.finished) continue;  // a failure misses the SLO
    const double t = rec.first_us - rec.due_us;
    ttft.push_back(t);
    if (t <= w.ttft_limit_us && rec.max_gap_us <= w.itl_limit_us) ++met;
  }
  SimMetrics m;
  m.ttft_p50_us = percentile(ttft, 50);
  m.ttft_p90_us = percentile(ttft, 90);
  m.itl_p50_us = percentile(r.itl_us, 50);
  m.itl_p99_us = percentile(r.itl_us, 99);
  m.slo_pct = pct(static_cast<double>(met),
                  static_cast<double>(r.requests.size()));
  m.busy_tok_per_s = static_cast<double>(r.processed_tokens) /
                     (r.busy_us * 1e-6);
  return m;
}

/// Named checks; every failure is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "CHECK FAILED: " << what << "\n";
      ok_ = false;
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// `count` distinct trace indices drawn from `seed`, ascending.
std::vector<std::size_t> sample_indices(const Workload& w,
                                        std::uint64_t seed,
                                        std::size_t count) {
  std::vector<std::size_t> idx(w.trace.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  stof::Rng rng(seed ^ 0x5a3b1e5a3b1eull);
  count = std::min(count, idx.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_below(idx.size() - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Median wall µs per call of `fn` over `reps` calls, after one warm-up.
template <class Fn>
double probe_us(int reps, Fn&& fn) {
  fn();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return median(us);
}

/// Registry values read right after the traced run's construction.
struct SetupCounters {
  double tunes = 0;
  double evaluations = 0;
  double tune_ms = 0;
  double gemm_ms = 0;
};

/// What the per-layer metrics are computed from.
struct LayerInputs {
  const Workload* w = nullptr;
  const ReplayResult* traced = nullptr;
  const Server* server = nullptr;
  SetupCounters at_setup;
  double untraced_wall_s = 0;
  stof::serve::Engine* reference = nullptr;
};

std::vector<Metric> layer_metrics(const LayerInputs& in, Checks& checks) {
  namespace tm = stof::telemetry;
  const tm::Registry& reg = tm::global_registry();
  const Workload& w = *in.w;
  const ReplayResult& r = *in.traced;
  const Server& s = *in.server;
  const int devices = s.devices();
  const auto& stats = s.engine(0).stats();
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name));
  };
  const auto timer_ms = [&](const char* name) {
    return reg.timer(name).total_us / 1000.0;
  };
  std::vector<Metric> m;

  // Host spans around the driver's calls: mean µs per call.
  std::map<SpanKind, std::pair<double, std::int64_t>> span_sum;
  double covered_us = 0;
  for (const HostSpan& sp : r.spans) {
    auto& [sum, n] = span_sum[sp.kind];
    sum += sp.end_us - sp.start_us;
    ++n;
    covered_us += sp.end_us - sp.start_us;
  }
  const auto span_mean = [&](SpanKind k) {
    const auto it = span_sum.find(k);
    return it == span_sum.end()
               ? 0.0
               : ratio(it->second.first,
                       static_cast<double>(it->second.second));
  };
  checks.expect(covered_us >= 0.95 * r.wall_s * 1e6,
                "execute/finalize/submit spans cover " +
                    json_number(pct(covered_us, r.wall_s * 1e6)) +
                    "% of the replay's wall time (need >= 95%)");
  m.push_back({"engine.execute_step_host_us",
               span_mean(SpanKind::kExecuteStep), "us"});
  m.push_back({"engine.finalize_step_host_us",
               span_mean(SpanKind::kFinalizeStep), "us"});
  m.push_back({"engine.submit_host_us", span_mean(SpanKind::kSubmit), "us"});
  m.push_back(
      {"cluster.step_host_us", span_mean(SpanKind::kClusterStep), "us"});

  // Model-runtime probes on the reference engine (same model, full width).
  double head_us_per_row = 0, charge_us = 0;
  if (stof::serve::ModelRuntime* model = in.reference->model_runtime()) {
    const auto head_rows = std::max<std::int64_t>(
        1, std::llround(ratio(static_cast<double>(stats.prefill_tokens +
                                                  stats.decode_tokens),
                              static_cast<double>(stats.steps))));
    const auto charge_rows = std::max<std::int64_t>(
        1, std::llround(ratio(counter("serve.model.rows"),
                              counter("serve.model.steps"))));
    stof::TensorH input(stof::Shape{head_rows, model->hidden()});
    stof::Rng rng(0x4ead);
    for (auto& x : input.data()) x = stof::half(rng.uniform(-1.0f, 1.0f));
    stof::TensorH rows = input;
    head_us_per_row =
        probe_us(20, [&] {
          rows = input;
          model->transform_rows(rows);
        }) /
        static_cast<double>(head_rows);
    stof::gpusim::Stream probe_stream(w.config.engine.device);
    charge_us = probe_us(50, [&] {
      model->charge_step(probe_stream, charge_rows);
      probe_stream.clear();
    });
  }
  m.push_back({"model.head_host_us_per_row", head_us_per_row, "us"});
  m.push_back({"model.charge_host_us_per_step", charge_us, "us"});

  const SetupCounters& setup = in.at_setup;
  m.push_back({"model.lazy_tunes", counter("serve.model.tunes") - setup.tunes,
               "count"});
  m.push_back({"model.lazy_tune_host_ms",
               timer_ms("wall.tunedb.tune_us") - setup.tune_ms, "ms"});
  m.push_back({"tuner.setup_tunes", setup.tunes, "count"});
  m.push_back({"tuner.setup_evaluations", setup.evaluations, "count"});
  m.push_back({"tuner.setup_host_ms", setup.tune_ms, "ms"});
  m.push_back({"ops.gemm_host_ms",
               timer_ms("wall.ops.gemm_us") - setup.gemm_ms, "ms"});
  m.push_back({"mha.blockwise_host_ms", timer_ms("wall.mha.blockwise_us"),
               "ms"});
  m.push_back({"sparse.bsr_cache_hit_pct",
               pct(counter("sim.sparse.bsr_cache_hits"),
                   counter("sim.sparse.bsr_cache_hits") +
                       counter("sim.sparse.bsr_cache_misses")),
               "%"});
  m.push_back({"panelcache.hit_pct",
               pct(counter("exec.panelcache.hits"),
                   counter("exec.panelcache.hits") +
                       counter("exec.panelcache.misses")),
               "%"});
  const double generated = static_cast<double>(r.generated_tokens);
  m.push_back({"kv.sidecar_bytes_per_token",
               ratio(counter("serve.kv.sidecar_bytes_converted"), generated),
               "B"});

  // Simulated time and traffic by kernel name.  Every device's per-name
  // times must add up to the busy time: equal head shards keep a
  // cluster's shards in step.
  std::map<std::string, double> share_us;
  double prefill_bytes = 0, decode_bytes = 0;
  for (int d = 0; d < devices; ++d) {
    const auto& stream = s.engine(d).stream();
    double sum = 0;
    for (const auto& [name, us] : stream.time_by_kernel_us()) {
      sum += us;
      if (d == 0) {
        const std::string cls =
            name.rfind("serve.prefill", 0) == 0        ? "prefill"
            : name.rfind("serve.decode", 0) == 0 ||
                    name.rfind("serve.spec.", 0) == 0  ? "decode"
            : name.rfind("serve.model.", 0) == 0       ? "model"
            : name.rfind("cluster.", 0) == 0           ? "collective"
                                                       : "other";
        share_us[cls] += us;
      }
    }
    checks.expect(std::abs(sum - r.busy_us) <= 1e-9 * r.busy_us,
                  "device " + std::to_string(d) + " kernel time " +
                      json_number(sum) + " us != busy time " +
                      json_number(r.busy_us) + " us");
    for (const auto& rec : stream.records()) {
      const double bytes = rec.cost.gmem_read_bytes + rec.cost.gmem_write_bytes;
      if (rec.name == "serve.prefill") prefill_bytes += bytes;
      if (rec.name == "serve.decode" || rec.name == "serve.spec.draft") {
        decode_bytes += bytes;
      }
    }
  }
  checks.expect(share_us["other"] == 0,
                "a kernel name falls outside prefill/decode/model/collective");
  m.push_back({"sim.prefill_share_pct", pct(share_us["prefill"], r.busy_us),
               "%"});
  m.push_back(
      {"sim.decode_share_pct", pct(share_us["decode"], r.busy_us), "%"});
  m.push_back({"sim.model_share_pct", pct(share_us["model"], r.busy_us), "%"});
  m.push_back({"sim.collective_share_pct",
               pct(share_us["collective"], r.busy_us), "%"});
  m.push_back({"sim.prefill_gmem_bytes_per_token",
               ratio(prefill_bytes, static_cast<double>(stats.prefill_tokens)),
               "B"});
  m.push_back({"sim.decode_gmem_bytes_per_token",
               ratio(decode_bytes, generated), "B"});
  m.push_back({"mha.blocks_skipped_pct",
               pct(counter("sim.mha.blocks_skipped"),
                   counter("sim.mha.blocks_skipped") +
                       counter("sim.mha.blocks_loaded")),
               "%"});
  m.push_back({"sim.launches_per_step",
               ratio(static_cast<double>(s.engine(0).stream().launch_count()),
                     static_cast<double>(r.steps)),
               "count"});

  // Scheduler and KV pool.
  std::vector<double> queue_wait;
  std::int64_t preempted = 0;
  for (const RequestRecord& rec : r.requests) {
    if (rec.admit_us >= 0) queue_wait.push_back(rec.admit_us - rec.due_us);
    preempted += rec.preemptions > 0 ? 1 : 0;
  }
  checks.expect(supports(queue_wait.size(), 90),
                "queue-wait p90 has fewer than 10 samples beyond it");
  const double n_req = static_cast<double>(r.requests.size());
  m.push_back({"sched.queue_wait_p50_us", percentile(queue_wait, 50), "us"});
  m.push_back({"sched.queue_wait_p90_us", percentile(queue_wait, 90), "us"});
  m.push_back({"sched.decode_batch_mean",
               ratio(static_cast<double>(r.emissions),
                     static_cast<double>(r.emitting_steps)),
               "count"});
  m.push_back({"sched.prefill_tokens_per_step_mean",
               ratio(static_cast<double>(stats.prefill_tokens),
                     static_cast<double>(r.steps)),
               "count"});
  m.push_back(
      {"sched.chunks", static_cast<double>(stats.prefill_chunks), "count"});
  m.push_back({"sched.preempted_pct",
               pct(static_cast<double>(preempted), n_req), "%"});
  const auto& pool = s.engine(0).pool();
  m.push_back({"kv.peak_used_pct",
               pct(static_cast<double>(pool.peak_used_blocks()),
                   static_cast<double>(pool.total_blocks())),
               "%"});
  // Adopted prefix tokens: bytes_saved counts K+V halves over each shard's
  // heads, which sum to the model's heads across the cluster.
  const double adopted =
      counter("serve.prefix.bytes_saved") /
      static_cast<double>(4 * w.config.engine.model_heads() *
                          w.config.engine.head_size);
  m.push_back({"kv.prefix_hit_token_pct",
               pct(adopted,
                   adopted + static_cast<double>(stats.prefill_tokens)),
               "%"});
  m.push_back({"kv.cow_copies", counter("serve.prefix.cow_copies") / devices,
               "count"});
  m.push_back({"spec.accept_pct",
               pct(counter("serve.spec.accepted"),
                   counter("serve.spec.drafted")),
               "%"});
  m.push_back({"spec.rollbacks", counter("serve.spec.rollbacks") / devices,
               "count"});
  m.push_back({"cluster.wire_bytes_per_step",
               ratio(counter("cluster.collective.wire_bytes") / devices,
                     static_cast<double>(r.steps)),
               "B"});
  const auto imbalance = reg.histogram("cluster.step.imbalance_pct");
  m.push_back({"cluster.step_imbalance_pct",
               ratio(imbalance.sum, static_cast<double>(imbalance.count)),
               "%"});
  m.push_back({"gpusim.busy_pct", pct(r.busy_us, r.makespan_us), "%"});
  m.push_back({"trace.overhead_pct",
               100.0 * (ratio(r.wall_s, in.untraced_wall_s) - 1.0), "%"});
  return m;
}

/// Chrome/Perfetto trace: host spans (pid 1, host clock) and each
/// request's lifecycle on the simulated clock (pid 2), one async track per
/// request id.
void write_trace(const std::string& path, const Workload& w,
                 const ReplayResult& r) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench_driver: cannot write " << path << "\n";
    return;
  }
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
     << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"host clock: driver spans\"}},\n"
     << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
        "\"args\": {\"name\": \"simulated clock: request lifecycle\"}}";
  for (const HostSpan& sp : r.spans) {
    os << ",\n{\"name\": \"" << span_name(sp.kind)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << json_number(sp.start_us)
       << ", \"dur\": " << json_number(sp.end_us - sp.start_us);
    if (sp.request >= 0) os << ", \"args\": {\"request\": " << sp.request << "}";
    os << "}";
  }
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    const RequestRecord& rec = r.requests[i];
    const auto id = w.trace[i].id;
    const auto event = [&](const char* name, const char* ph, double ts) {
      os << ",\n{\"name\": \"" << name << "\", \"cat\": \"request\", "
         << "\"ph\": \"" << ph << "\", \"id\": " << id
         << ", \"pid\": 2, \"tid\": 1, \"ts\": " << json_number(ts) << "}";
    };
    event("request", "b", rec.due_us);
    if (rec.admit_us >= 0) event("admit", "n", rec.admit_us);
    if (rec.first_us >= 0) event("first_token", "n", rec.first_us);
    event("request", "e", rec.finished ? rec.finish_us : r.makespan_us);
  }
  os << "\n]}\n";
}

/// One set-up sample: constructs `w`'s server back to back until the
/// constructions add up to at least `min_s`, and returns seconds per
/// construction.  A single construction can take well under a
/// millisecond, too short to time alone.
double setup_sample(const Workload& w, std::unique_ptr<Server>& server,
                    double min_s) {
  double total_s = 0;
  int count = 0;
  do {
    total_s += construct(w, server);
    ++count;
  } while (total_s < min_s);
  return total_s / count;
}

int run(const Args& args) {
  const int cpu = pin_to_one_cpu();
  Checks checks;
  checks.expect(cpu >= 0, "could not pin the process to one CPU");
  const Workload w = make_workload(args.workload, args.seed);

  // Timed replays: telemetry off, a fresh server each time.  The first
  // replay is a warm-up and is left out of the host-clock median.  Each
  // replay's server comes from a set-up sample, so the samples spread
  // over the whole run; a few more follow if the replays were too few.
  const auto start = Clock::now();
  std::vector<ReplayResult> runs;
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  do {
    setup_s.push_back(setup_sample(w, server, /*min_s=*/0.05));
    runs.push_back(replay(w, *server, /*traced=*/false));
  } while (runs.size() < 3 ||
           seconds_between(start, Clock::now()) < args.seconds);
  while (setup_s.size() < 7) {
    setup_s.push_back(setup_sample(w, server, /*min_s=*/0.05));
  }

  const SimMetrics sim = sim_metrics(w, runs[0]);
  std::vector<double> host_us_per_token, wall_s;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ReplayResult& r = runs[i];
    checks.expect(sim_metrics(w, r) == sim,
                  "in-process replays disagree on a sim_* metric");
    if (i == 0) continue;
    host_us_per_token.push_back(r.wall_s * 1e6 /
                                static_cast<double>(r.generated_tokens));
    wall_s.push_back(r.wall_s);
  }
  checks.expect(supports(runs[0].requests.size(), 90),
                "TTFT p90 has fewer than 10 samples beyond it");
  checks.expect(supports(runs[0].itl_us.size(), 99),
                "ITL p99 has fewer than 10 samples beyond it");

  // Output check: every request finishes with the same digest in every
  // replay, and a seeded sample replayed alone on a fresh serial engine
  // reproduces its digest (for a cluster: the single-device digest).
  std::vector<bool> ok(w.trace.size(), true);
  for (std::size_t i = 0; i < w.trace.size(); ++i) {
    for (const ReplayResult& r : runs) {
      ok[i] = ok[i] && r.requests[i].finished &&
              r.requests[i].digest == runs[0].requests[i].digest;
    }
  }
  stof::serve::Engine reference(reference_config(w));
  const auto sample = sample_indices(w, args.seed, 8);
  for (const std::size_t i : sample) {
    Request r = w.trace[i];
    r.arrival_us = 0;
    reference.submit(r);
  }
  reference.run_until_drained();
  for (const std::size_t i : sample) {
    ok[i] = ok[i] &&
            reference.session(w.trace[i].id).digest == runs[0].requests[i].digest;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    namespace tm = stof::telemetry;
    tm::Registry& reg = tm::global_registry();
    reg.reset();
    ReplayResult traced;
    LayerInputs in;
    {
      tm::ScopedTelemetry on(true);
      construct(w, server);
      in.at_setup = SetupCounters{
          .tunes = static_cast<double>(reg.counter("serve.model.tunes")),
          .evaluations =
              static_cast<double>(reg.counter("sim.tuner.evaluations")),
          .tune_ms = reg.timer("wall.tunedb.tune_us").total_us / 1000.0,
          .gemm_ms = reg.timer("wall.ops.gemm_us").total_us / 1000.0};
      traced = replay(w, *server, /*traced=*/true);
    }
    checks.expect(sim_metrics(w, traced) == sim,
                  "the traced replay changed a sim_* metric");
    for (std::size_t i = 0; i < w.trace.size(); ++i) {
      checks.expect(traced.requests[i].digest == runs[0].requests[i].digest,
                    "the traced replay changed request " +
                        std::to_string(i) + "'s output");
    }
    in.w = &w;
    in.traced = &traced;
    in.server = server.get();
    in.untraced_wall_s = median(wall_s);
    in.reference = &reference;
    metrics = layer_metrics(in, checks);
    if (!args.trace_out.empty()) write_trace(args.trace_out, w, traced);
  }

  std::int64_t failed = 0;
  for (const bool b : ok) failed += b ? 0 : 1;
  checks.expect(failed == 0, std::to_string(failed) +
                                 " requests failed the output check");

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (!args.trace) {
    const double n = static_cast<double>(w.trace.size());
    metrics = {
        {"sim_ttft_p50_us", sim.ttft_p50_us, "us"},
        {"sim_ttft_p90_us", sim.ttft_p90_us, "us"},
        {"sim_itl_p50_us", sim.itl_p50_us, "us"},
        {"sim_itl_p99_us", sim.itl_p99_us, "us"},
        {"sim_slo_pct", sim.slo_pct, "%"},
        {"sim_busy_tok_per_s", sim.busy_tok_per_s, "tok/s"},
        {"host_us_per_token", median(host_us_per_token), "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"requests_ok_pct", pct(n - static_cast<double>(failed), n), "%"},
    };
  }

  std::cout << "# host_us_per_token by replay (after warm-up "
            << runs[0].wall_s * 1e6 /
                   static_cast<double>(runs[0].generated_tokens)
            << "):";
  for (const double v : host_us_per_token) std::cout << " " << v;
  std::cout << "\n# setup_s samples:";
  for (const double v : setup_s) std::cout << " " << v;
  std::cout << "\n# workload=" << w.name << " seed=" << args.seed
            << " replays=" << runs.size() << " cpu=" << cpu
            << " isa=" << stof::core::isa_name(stof::core::active_isa())
            << " build=" << PERFBENCH_BUILD_TYPE << "\n";
  print_result(checks.ok(), static_cast<std::int64_t>(w.trace.size()), failed,
               metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
