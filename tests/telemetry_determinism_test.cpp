// Satellite property tests: telemetry content is a pure function of the
// seeded workload.
//
//  * Two identical seeded serving runs (model-load tuning + engine steps
//    through the layer head) produce byte-identical dump_json snapshots
//    once wall-clock timers (the only nondeterministic section) are
//    excluded.
//  * Every kernel ISA reports identical *simulated* counters (`sim.*`):
//    what the simulation did cannot depend on which bit-identical kernel
//    table computed the numerics.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "stof/core/kernels.hpp"
#include "stof/serve/engine.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::telemetry {
namespace {

// One seeded workload: an engine serving a 2-layer GPT decoder at small
// dims with an in-memory tune DB.  Construction tunes the model's shape
// buckets (the two-stage search over a models::Executor); the trace then
// runs every step's rows through the layer head's GEMMs.  Records into the
// global registry.
void run_workload() {
  serve::EngineConfig cfg;
  cfg.heads = 2;
  cfg.head_size = 16;
  cfg.max_seq_len = 64;
  cfg.kv_blocks = 16;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.mode = serve::SchedulerMode::kContinuous;
  cfg.scheduler.max_prefills_per_step = 4;
  cfg.scheduler.prefill_token_budget = 64;
  cfg.scheduler.max_decode_batch = 8;
  cfg.model.kind = serve::ModelKind::kGptDecoder;
  cfg.model.layers = 2;

  serve::Engine engine(cfg);
  engine.submit({0, 12, 4, 101, masks::PatternKind::kCausal, 0.0});
  engine.submit({1, 20, 3, 102, masks::PatternKind::kBigBird, 0.0});
  engine.submit({2, 9, 5, 103, masks::PatternKind::kSlidingWindow, 0.0});
  engine.run_until_drained();
}

std::string snapshot_without_timers() {
  return dump_json({.include_timers = false});
}

TEST(TelemetryDeterminism, SeededRunsDumpIdenticalJson) {
  ScopedTelemetry on(true);

  global_registry().reset();
  run_workload();
  const std::string first = snapshot_without_timers();

  global_registry().reset();
  run_workload();
  const std::string second = snapshot_without_timers();

  // The workload actually recorded something across all three layers.
  EXPECT_NE(first.find("sim.tuner."), std::string::npos);
  EXPECT_NE(first.find("sim.gpusim."), std::string::npos);
  EXPECT_NE(first.find("sim.exec."), std::string::npos);
  EXPECT_EQ(first, second);  // byte-identical
  global_registry().reset();
}

std::map<std::string, std::int64_t> sim_counters() {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : global_registry().counters()) {
    if (name.rfind("sim.", 0) == 0) out.emplace(name, value);
  }
  return out;
}

TEST(TelemetryDeterminism, IsasAgreeOnSimCounters) {
  ScopedTelemetry on(true);
  std::map<std::string, std::int64_t> want;
  for (const core::Isa isa : core::available_isas()) {
    global_registry().reset();
    {
      core::ScopedKernelIsa pin(isa);
      run_workload();
    }
    const auto got = sim_counters();
    ASSERT_FALSE(got.empty());
    if (want.empty()) want = got;
    EXPECT_EQ(want, got) << core::isa_name(isa);
  }
  global_registry().reset();
}

}  // namespace
}  // namespace stof::telemetry
