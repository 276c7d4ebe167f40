// Unit tests for the telemetry subsystem: registry semantics (counters,
// gauges, histograms, timers), the log2 bucketing scheme, the global
// enable toggle and its zero-entry guarantee, merge_into accumulation, and
// the deterministic JSON export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::telemetry {
namespace {

TEST(Registry, CountersAccumulateAndReadZeroWhenAbsent) {
  Registry r;
  EXPECT_EQ(r.counter("never.recorded"), 0);
  r.add("a.calls");
  r.add("a.calls", 4);
  r.add("b.bytes", 1024);
  EXPECT_EQ(r.counter("a.calls"), 5);
  EXPECT_EQ(r.counter("b.bytes"), 1024);
  EXPECT_EQ(r.entry_count(), 2u);
}

TEST(Registry, GaugesKeepLastWrite) {
  Registry r;
  r.set_gauge("occupancy", 0.5);
  r.set_gauge("occupancy", 0.75);
  EXPECT_DOUBLE_EQ(r.gauge("occupancy"), 0.75);
  EXPECT_DOUBLE_EQ(r.gauge("absent"), 0.0);
}

TEST(Registry, HistogramBucketsFollowLog2Scheme) {
  EXPECT_EQ(log2_bucket(0.0), 0);
  EXPECT_EQ(log2_bucket(0.9), 0);
  EXPECT_EQ(log2_bucket(1.0), 1);    // [1, 2)
  EXPECT_EQ(log2_bucket(1.99), 1);
  EXPECT_EQ(log2_bucket(2.0), 2);    // [2, 4)
  EXPECT_EQ(log2_bucket(1024.0), 11);
  EXPECT_EQ(log2_bucket(1e300), kHistogramBuckets - 1);  // clamped

  Registry r;
  r.observe("t", 0.5);
  r.observe("t", 3.0);
  r.observe("t", 3.5);
  const auto h = r.histogram("t");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 7.0);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
}

TEST(Registry, HistogramSumIsIndependentOfObservationOrder) {
  // Parallel workers observe (and per-worker registries merge) in whatever
  // order their threads arrive, so the dumped sum must not depend on it.
  const auto dump_of = [](const std::vector<double>& values) {
    Registry r;
    for (const double v : values) r.observe("t", v);
    return r.dump_json();
  };
  // In double arithmetic these three sum differently forward and backward.
  ASSERT_NE((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
  EXPECT_EQ(dump_of({0.1, 0.2, 0.3}), dump_of({0.3, 0.2, 0.1}));

  // Merging two workers regroups the additions: in double arithmetic the
  // even half's sum plus the odd half's differs from the running sum.
  const std::vector<double> values = {0.1, 0.2, 0.3, 1e-3, 2.5,
                                      8598.5132422039642};
  Registry odd;
  Registry even;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 == 0 ? even : odd).observe("t", values[i]);
  }
  Registry odd_first;
  odd.merge_into(odd_first);
  even.merge_into(odd_first);
  Registry even_first;
  even.merge_into(even_first);
  odd.merge_into(even_first);
  EXPECT_EQ(odd_first.dump_json(), even_first.dump_json());
  EXPECT_EQ(odd_first.dump_json(), dump_of(values));
}

TEST(Registry, TimersAccumulateDurationAndCalls) {
  Registry r;
  r.add_duration_us("phase", 10.0);
  r.add_duration_us("phase", 2.5, 3);
  const auto t = r.timer("phase");
  EXPECT_DOUBLE_EQ(t.total_us, 12.5);
  EXPECT_EQ(t.count, 4u);
}

TEST(Registry, ScopedTimerRecordsIntoExplicitRegistry) {
  Registry r;
  {
    ScopedTimer t(&r, "scope");
  }
  EXPECT_EQ(r.timer("scope").count, 1u);
  EXPECT_GE(r.timer("scope").total_us, 0.0);
  {
    ScopedTimer t(nullptr, "scope");  // null registry => no-op
  }
  EXPECT_EQ(r.timer("scope").count, 1u);
}

TEST(Registry, ResetClearsEverything) {
  Registry r;
  r.add("c");
  r.set_gauge("g", 1);
  r.observe("h", 2);
  r.add_duration_us("t", 3);
  EXPECT_EQ(r.entry_count(), 4u);
  r.reset();
  EXPECT_EQ(r.entry_count(), 0u);
  EXPECT_EQ(r.counter("c"), 0);
}

TEST(Registry, MergeIntoAccumulates) {
  Registry a, b;
  a.add("n", 2);
  a.observe("h", 3.0);
  a.add_duration_us("t", 5.0);
  a.set_gauge("g", 1.0);
  b.add("n", 40);
  b.set_gauge("g", 9.0);

  a.merge_into(b);
  EXPECT_EQ(b.counter("n"), 42);
  EXPECT_EQ(b.histogram("h").count, 1u);
  EXPECT_EQ(b.timer("t").count, 1u);
  EXPECT_DOUBLE_EQ(b.gauge("g"), 1.0);  // gauges overwrite
}

TEST(Registry, ConcurrentCountingIsDeterministic) {
  Registry r;
  parallel_for(std::int64_t{0}, std::int64_t{1000},
               [&](std::int64_t) { r.add("hits"); });
  EXPECT_EQ(r.counter("hits"), 1000);
}

TEST(Toggle, DefaultsDisabledAndScopedGuardRestores) {
  ASSERT_FALSE(enabled());
  {
    ScopedTelemetry on(true);
    EXPECT_TRUE(enabled());
    {
      ScopedTelemetry off(false);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

TEST(Toggle, DisabledHelpersCreateNoEntries) {
  ASSERT_FALSE(enabled());
  global_registry().reset();
  count("x.calls");
  gauge("x.g", 1.0);
  observe("x.h", 2.0);
  duration_us("x.t", 3.0);
  { ScopedTimer t("x.scope"); }
  EXPECT_EQ(global_registry().entry_count(), 0u);
}

TEST(Toggle, EnabledHelpersRecordIntoGlobalRegistry) {
  ScopedTelemetry on(true);
  global_registry().reset();
  count("y.calls", 7);
  observe("y.h", 2.0);
  { ScopedTimer t("y.scope"); }
  EXPECT_EQ(global_registry().counter("y.calls"), 7);
  EXPECT_EQ(global_registry().histogram("y.h").count, 1u);
  EXPECT_EQ(global_registry().timer("y.scope").count, 1u);
  global_registry().reset();
}

TEST(Json, DumpIsSortedAndParsesStructurally) {
  Registry r;
  r.add("zeta", 1);
  r.add("alpha", 2);
  r.observe("hist", 5.0);
  r.add_duration_us("timer", 1.5);
  const std::string j = r.dump_json();
  EXPECT_NE(j.find("\"schema\""), std::string::npos);
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"timers\""), std::string::npos);
  // Name-sorted: alpha precedes zeta.
  EXPECT_LT(j.find("\"alpha\""), j.find("\"zeta\""));
  // Balanced braces (structural sanity without a JSON parser).
  int depth = 0;
  bool in_string = false;
  for (const char c : j) {
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Json, TimersExcludableForDeterministicComparison) {
  Registry r;
  r.add("c", 1);
  r.add_duration_us("wall.t", 123.456);
  const std::string with = r.dump_json();
  const std::string without = r.dump_json({.include_timers = false});
  EXPECT_NE(with.find("\"timers\""), std::string::npos);
  EXPECT_EQ(without.find("\"timers\""), std::string::npos);
  EXPECT_NE(without.find("\"c\""), std::string::npos);
}

TEST(Json, IdenticalContentProducesIdenticalBytes) {
  auto fill = [](Registry& r) {
    r.add("sim.a", 3);
    r.observe("sim.h", 2.5);
    r.set_gauge("g", 0.25);
  };
  Registry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(r1.dump_json(), r2.dump_json());
}

}  // namespace
}  // namespace stof::telemetry
