// Tests for the library tooling: Chrome-trace export and the umbrella
// header (compiled here, proving every public header is self-contained
// together).
#include "stof/stof.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "stof/gpusim/trace.hpp"

namespace stof {
namespace {

// ---- Umbrella smoke ----------------------------------------------------------

TEST(Umbrella, PublicTypesUsableTogether) {
  const auto mask = masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                                    .seq_len = 64}
                        .build();
  mha::UnifiedMha attention({1, 4, 64, 16}, mask, gpusim::a100());
  gpusim::Stream stream(gpusim::a100());
  EXPECT_GT(attention.simulate(stream), 0.0);
}

// ---- Chrome trace --------------------------------------------------------------

TEST(ChromeTrace, ContainsEveryKernelSlice) {
  gpusim::Stream s(gpusim::a100());
  gpusim::KernelCost c;
  c.gmem_read_bytes = 1e6;
  s.launch("alpha_kernel", c);
  s.launch("beta_kernel", c);
  const std::string json = gpusim::chrome_trace_json(s, "unit-test");
  EXPECT_NE(json.find("\"alpha_kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"beta_kernel\""), std::string::npos);
  EXPECT_NE(json.find("unit-test on A100"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  std::int64_t depth = 0;
  for (const char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, SlicesAreContiguousAndOrdered) {
  gpusim::Stream s(gpusim::rtx4090());
  gpusim::KernelCost c;
  c.tc_flops = 1e9;
  s.launch("k1", c);
  s.launch("k2", c);
  const std::string json = gpusim::chrome_trace_json(s);
  // The second slice starts at the first slice's duration.
  const auto t1 = s.records()[0].time_us;
  std::ostringstream expected;
  expected << "\"ts\":" << std::setprecision(12) << t1;
  EXPECT_NE(json.find(expected.str()), std::string::npos);
}

TEST(ChromeTrace, EscapesSpecialCharacters) {
  gpusim::Stream s(gpusim::a100());
  s.launch("weird\"name\\path", gpusim::KernelCost{});
  const std::string json = gpusim::chrome_trace_json(s);
  EXPECT_NE(json.find("weird\\\"name\\\\path"), std::string::npos);
}

TEST(ChromeTrace, EmptyStreamIsValid) {
  gpusim::Stream s(gpusim::a100());
  const std::string json = gpusim::chrome_trace_json(s);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace stof
