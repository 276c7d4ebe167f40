// Tests for the MHA-level baseline policies: the support matrix (missing
// bars of Fig. 10/11) and the performance-ordering shapes the paper
// reports.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "stof/baselines/mha_methods.hpp"

namespace stof::baselines {
namespace {

using masks::MaskSpec;
using masks::PatternKind;

double simulate_on(Method m, const mha::MhaDims& dims, PatternKind kind,
                   sparse::BsrCache& cache, const gpusim::DeviceSpec& dev,
                   bool* supported = nullptr) {
  gpusim::Stream s(dev);
  const MhaSimResult r = simulate_mha(m, dims, kind, cache, s);
  if (supported != nullptr) *supported = r.supported;
  return r.time_us;
}

TEST(Baselines, MethodNamesUnique) {
  std::set<std::string> names;
  for (const auto m : mha_methods()) names.insert(to_string(m));
  EXPECT_EQ(names.size(), mha_methods().size());
  EXPECT_EQ(to_string(Method::kBolt), "Bolt");
}

TEST(Baselines, BoltHasNoMhaPath) {
  const mha::MhaDims dims{1, 12, 128, 64};
  sparse::BsrCache cache(
      MaskSpec{.kind = PatternKind::kBigBird, .seq_len = 128}.build());
  gpusim::Stream s(gpusim::a100());
  const auto r =
      simulate_mha(Method::kBolt, dims, PatternKind::kBigBird, cache, s);
  EXPECT_FALSE(r.supported);
}

// ---- Support matrix (the missing bars) ----------------------------------------

TEST(SupportMatrix, ByteTransformerRejectsLongSequences) {
  const mha::MhaDims dims{1, 12, 2048, 64};
  sparse::BsrCache cache(
      MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = 2048}.build());
  bool supported = true;
  simulate_on(Method::kByteTransformer, dims, PatternKind::kSlidingWindow,
              cache, gpusim::a100(), &supported);
  EXPECT_FALSE(supported);

  const mha::MhaDims ok_dims{1, 12, 1024, 64};
  sparse::BsrCache ok_cache(
      MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = 1024}.build());
  simulate_on(Method::kByteTransformer, ok_dims, PatternKind::kSlidingWindow,
              ok_cache, gpusim::a100(), &supported);
  EXPECT_TRUE(supported);
}

TEST(SupportMatrix, McfuserOomAtLargeScale) {
  // (16, 4096) workspace: 16*12*4096^2*12 bytes ~ 38.6 GB > both GPUs.
  const mha::MhaDims dims{16, 12, 4096, 64};
  sparse::BsrCache cache(
      MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = 4096}.build());
  bool supported = true;
  simulate_on(Method::kMcfuser, dims, PatternKind::kSlidingWindow, cache,
              gpusim::rtx4090(), &supported);
  EXPECT_FALSE(supported);
  simulate_on(Method::kMcfuser, dims, PatternKind::kSlidingWindow, cache,
              gpusim::a100(), &supported);
  EXPECT_FALSE(supported);

  // (8, 512) fits comfortably.
  const mha::MhaDims small{8, 12, 512, 64};
  sparse::BsrCache small_cache(
      MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = 512}.build());
  simulate_on(Method::kMcfuser, small, PatternKind::kSlidingWindow,
              small_cache, gpusim::a100(), &supported);
  EXPECT_TRUE(supported);
}

// ---- Performance shapes (Fig. 10/11) -------------------------------------------

class ShapeOnDevice : public ::testing::TestWithParam<gpusim::DeviceSpec> {};

TEST_P(ShapeOnDevice, StofBeatsAllBaselinesAtLargeSparseScale) {
  const auto dev = GetParam();
  const mha::MhaDims dims{16, 12, 2048, 64};
  for (const auto kind :
       {PatternKind::kSlidingWindow, PatternKind::kDilated,
        PatternKind::kLongformer, PatternKind::kBigBird}) {
    sparse::BsrCache cache(MaskSpec{.kind = kind, .seq_len = 2048}.build());
    const double stof =
        simulate_on(Method::kStof, dims, kind, cache, dev);
    for (const auto m : mha_methods()) {
      if (m == Method::kStof) continue;
      bool supported = true;
      const double t = simulate_on(m, dims, kind, cache, dev, &supported);
      if (!supported) continue;
      EXPECT_LT(stof, t) << to_string(m) << " on " << to_string(kind) << " ("
                         << dev.name << ")";
    }
  }
}

TEST_P(ShapeOnDevice, StofSpeedupOverNativeGrowsWithSequence) {
  const auto dev = GetParam();
  const auto speedup = [&](std::int64_t seq) {
    const mha::MhaDims dims{8, 12, seq, 64};
    sparse::BsrCache cache(
        MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = seq}.build());
    const double native = simulate_on(Method::kPytorchNative, dims,
                                      PatternKind::kSlidingWindow, cache, dev);
    const double stof = simulate_on(Method::kStof, dims,
                                    PatternKind::kSlidingWindow, cache, dev);
    return native / stof;
  };
  const double s512 = speedup(512);
  const double s2048 = speedup(2048);
  EXPECT_GT(s2048, s512) << dev.name;
  EXPECT_GT(s2048, 4.0) << dev.name;  // long-sequence skipping pays off
}

TEST_P(ShapeOnDevice, StofBeatsFlexAttentionViaFinerBlocks) {
  // Paper: 1.8x / 1.6x average over FlexAttention.  The coarse (128,128)
  // block mask wastes work on band masks that STOF's tuned blocks skip.
  const auto dev = GetParam();
  const mha::MhaDims dims{16, 12, 4096, 64};
  sparse::BsrCache cache(
      MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = 4096}.build());
  const double flex = simulate_on(Method::kFlexAttention, dims,
                                  PatternKind::kSlidingWindow, cache, dev);
  const double stof = simulate_on(Method::kStof, dims,
                                  PatternKind::kSlidingWindow, cache, dev);
  EXPECT_GT(flex / stof, 1.3) << dev.name;
}

TEST_P(ShapeOnDevice, Fa2FallsBackOnDiscretePatterns) {
  // FA2 handles sliding natively but computes dilated densely.
  const auto dev = GetParam();
  const mha::MhaDims dims{8, 12, 2048, 64};
  sparse::BsrCache sliding(
      MaskSpec{.kind = PatternKind::kSlidingWindow, .seq_len = 2048}.build());
  sparse::BsrCache dilated(
      MaskSpec{.kind = PatternKind::kDilated, .seq_len = 2048}.build());
  const double t_sliding = simulate_on(Method::kFlashAttention2, dims,
                                       PatternKind::kSlidingWindow, sliding,
                                       dev);
  const double t_dilated = simulate_on(Method::kFlashAttention2, dims,
                                       PatternKind::kDilated, dilated, dev);
  // Same sparsity (93.8%), but the dilated mask can't use FA2's skipping.
  EXPECT_GT(t_dilated, t_sliding * 2.0) << dev.name;
}

INSTANTIATE_TEST_SUITE_P(BothGpus, ShapeOnDevice,
                         ::testing::Values(gpusim::rtx4090(), gpusim::a100()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace stof::baselines
