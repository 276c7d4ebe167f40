// Satellite zero-overhead tests: with telemetry disabled (the default),
// instrumented hot paths must not create registry entries and the gate must
// cost no more than an atomic load + branch per call site.  The <2%
// end-to-end packed-timing budget is enforced by the bench_tier1 harness;
// here we pin the mechanisms that make it hold.
#include <gtest/gtest.h>

#include <chrono>

#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::telemetry {
namespace {

TensorH random_tensor(Shape shape, std::uint64_t seed) {
  TensorH t(shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

TEST(TelemetryOverhead, DisabledWorkloadCreatesNoRegistryEntries) {
  ASSERT_FALSE(enabled());
  global_registry().reset();

  // The instrumented hot paths of bench_tier1 --quick: packed GEMM with
  // bias epilogue and block-wise attention over a BigBird mask.
  const TensorH a = random_tensor(Shape{1, 32, 64}, 1);
  const TensorH b = random_tensor(Shape{64, 64}, 2);
  const TensorH bias = random_tensor(Shape{64}, 3);
  TensorH c(Shape{1, 32, 64});
  ops::gemm(a, b.to_float(), c, ops::Epilogue::kBias, &bias);

  const mha::MhaDims dims{1, 2, 64, 32};
  const TensorH q = random_tensor(dims.qkv_shape(), 4);
  const TensorH k = random_tensor(dims.kv_shape(), 5);
  const TensorH v = random_tensor(dims.kv_shape(), 6);
  const auto mask =
      masks::MaskSpec{.kind = masks::PatternKind::kBigBird, .seq_len = 64}
          .build();
  const auto bsr = sparse::BsrMask::build(mask, 32, 32);
  (void)mha::blockwise_attention(dims, q, k, v, bsr, {32, 32});

  EXPECT_EQ(global_registry().entry_count(), 0u);
}

TEST(TelemetryOverhead, DisabledGateIsNearFree) {
  ASSERT_FALSE(enabled());
  // 1M gated calls while disabled: one relaxed atomic load and a branch
  // each, no name construction, no locking.  Budget of 250 ns/call is ~100x
  // the expected cost — generous enough for a loaded CI machine while still
  // catching an accidentally ungated implementation (string + map + mutex
  // per call costs microseconds).
  constexpr int kCalls = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    count("overhead.gate.check");
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_EQ(global_registry().counter("overhead.gate.check"), 0);
  EXPECT_LT(ns / kCalls, 250.0);
}

TEST(TelemetryOverhead, InstrumentedPassRecordsOnlyWhileEnabled) {
  global_registry().reset();
  const TensorH a = random_tensor(Shape{1, 16, 32}, 1);
  const TensorH b = random_tensor(Shape{32, 32}, 2);
  TensorH c(Shape{1, 16, 32});
  {
    ScopedTelemetry on(true);
    ops::gemm(a, b.to_float(), c);
  }
  const std::int64_t calls_while_enabled =
      global_registry().counter("sim.ops.gemm_calls");
  EXPECT_EQ(calls_while_enabled, 1);

  // Disabled again: must not move the counter.
  ops::gemm(a, b.to_float(), c);
  EXPECT_EQ(global_registry().counter("sim.ops.gemm_calls"),
            calls_while_enabled);
  global_registry().reset();
}

}  // namespace
}  // namespace stof::telemetry
