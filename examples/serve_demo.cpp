// Continuous-batching serving demo: three sessions with mixed mask kinds
// arrive on a short open-loop trace and are served by stof::serve, printing
// the batch composition of every engine step — watch prefills get admitted
// while earlier sessions keep decoding, all in one ragged batch per step.
//
//   $ ./example_serve_demo
//
// Everything is deterministic: the sim clock advances by the gpusim cost of
// each step's kernels, and session outputs are a pure function of each
// request's seed (the same digests would come out of a serial schedule).
#include <cstdio>
#include <string>

#include "stof/serve/engine.hpp"

using namespace stof;

namespace {

const char* kind_name(masks::PatternKind kind) {
  switch (kind) {
    case masks::PatternKind::kCausal: return "causal";
    case masks::PatternKind::kSlidingWindow: return "sliding-window";
    case masks::PatternKind::kStrided: return "strided";
    case masks::PatternKind::kBigBird: return "bigbird";
    default: return "other";
  }
}

std::string id_list(const std::vector<serve::SessionId>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (const auto id : ids) {
    if (!out.empty()) out += ',';
    out += 's';
    out += std::to_string(id);
  }
  return out;
}

/// Prefill windows as id[begin,end): a whole prefill spans its context,
/// a chunk a slice of it.
std::string window_list(const std::vector<serve::PrefillChunk>& windows) {
  if (windows.empty()) return "-";
  std::string out;
  for (const auto& w : windows) {
    if (!out.empty()) out += ',';
    out += 's' + std::to_string(w.id) + '[' + std::to_string(w.begin) + ',' +
           std::to_string(w.end) + ')';
  }
  return out;
}

}  // namespace

int main() {
  serve::EngineConfig cfg;
  cfg.heads = 2;
  cfg.head_size = 32;
  cfg.max_seq_len = 64;
  cfg.kv_blocks = 12;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = serve::SchedulerMode::kContinuous;
  cfg.scheduler.prefill_token_budget = 64;

  const serve::Request trace[] = {
      {0, 24, 6, 7001, masks::PatternKind::kCausal, 0.0},
      {1, 12, 8, 7002, masks::PatternKind::kSlidingWindow, 0.0},
      {2, 18, 5, 7003, masks::PatternKind::kBigBird, 40.0},
  };

  serve::Engine engine(cfg);
  engine.on_step = [&](const serve::StepOutcome& ev, std::int64_t step,
                       double duration_us, std::int64_t kv_used_blocks) {
    std::printf(
        "step %3lld  t=%8.1fus  +%6.1fus  prefill[%-16s] decode[%-11s]"
        "  kv %2lld/%lld%s\n",
        static_cast<long long>(step), ev.start_us, duration_us,
        window_list(ev.prefills).c_str(), id_list(ev.decodes).c_str(),
        static_cast<long long>(kv_used_blocks),
        static_cast<long long>(cfg.kv_blocks),
        ev.evicted.empty()
            ? ""
            : ("  evicted " + id_list(ev.evicted)).c_str());
  };

  std::printf("serving 3 sessions on a %lld-block paged KV pool:\n",
              static_cast<long long>(cfg.kv_blocks));
  for (const auto& r : trace) {
    std::printf("  s%lld: prompt %lld, generate %lld, %s mask, arrives "
                "t=%.0fus\n",
                static_cast<long long>(r.id),
                static_cast<long long>(r.prompt_len),
                static_cast<long long>(r.max_new_tokens),
                kind_name(r.mask_kind), r.arrival_us);
  }
  std::printf("\n");

  std::size_t next = 0;
  const std::size_t n = std::size(trace);
  while (next < n || !engine.idle()) {
    while (next < n && trace[next].arrival_us <= engine.sim_time_us()) {
      engine.submit(trace[next++]);
    }
    if (engine.idle()) {
      engine.advance_to(trace[next].arrival_us);
      continue;
    }
    engine.step();
  }

  std::printf("\nall sessions finished at t=%.1fus (simulated):\n",
              engine.sim_time_us());
  for (const auto& r : trace) {
    const serve::Session& s = engine.session(r.id);
    std::printf("  s%lld: %lld tokens generated, first token %.1fus, "
                "finished %.1fus, digest %016llx\n",
                static_cast<long long>(r.id),
                static_cast<long long>(s.generated), s.first_token_us,
                s.finish_us,
                static_cast<unsigned long long>(s.digest));
  }
  const auto& st = engine.stats();
  std::printf("engine: %lld steps, %lld prefill + %lld decode tokens, "
              "%lld preemptions\n",
              static_cast<long long>(st.steps),
              static_cast<long long>(st.prefill_tokens),
              static_cast<long long>(st.decode_tokens),
              static_cast<long long>(st.preemptions));
  return 0;
}
