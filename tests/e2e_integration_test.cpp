// Integration tests across the whole pipeline: mask -> sparse formats ->
// unified MHA -> graph -> fusion -> tuner -> end-to-end simulation,
// asserting the paper's Fig. 12 / Fig. 13 shapes.
#include <gtest/gtest.h>

#include "stof/models/e2e.hpp"

namespace stof::models {
namespace {

using baselines::Method;
using masks::PatternKind;

tuner::TuningOptions fast_options() {
  tuner::TuningOptions opt;
  opt.samples_per_candidate = 2;
  opt.stage2_iterations = 2;
  opt.stage2_budget = 8;
  opt.stage1_max_evals = 250;
  return opt;
}

TEST(E2e, AllMethodsRunOnSmallConfig) {
  const auto model = bert_small();
  for (const auto method :
       {Method::kPytorchNative, Method::kPytorchCompile,
        Method::kByteTransformer, Method::kMcfuser, Method::kBolt,
        Method::kStof}) {
    const auto r = simulate_e2e(method, model, 1, 128, PatternKind::kBigBird,
                                gpusim::a100(), fast_options());
    EXPECT_TRUE(r.supported) << to_string(method);
    EXPECT_GT(r.time_us, 0) << to_string(method);
  }
}

TEST(E2e, StofFastestOnBigbirdAcrossSettings) {
  // Fig. 12: STOF delivers the highest speedups across models/settings.
  const auto model = bert_small();
  const auto opt = fast_options();
  for (const auto& dev : {gpusim::rtx4090(), gpusim::a100()}) {
    for (const auto& [bs, seq] :
         {std::pair<std::int64_t, std::int64_t>{1, 128}, {8, 512}}) {
      const double stof = simulate_e2e(Method::kStof, model, bs, seq,
                                       PatternKind::kBigBird, dev, opt)
                              .time_us;
      for (const auto method :
           {Method::kPytorchNative, Method::kPytorchCompile,
            Method::kByteTransformer, Method::kMcfuser, Method::kBolt}) {
        const auto r = simulate_e2e(method, model, bs, seq,
                                    PatternKind::kBigBird, dev, opt);
        if (!r.supported) continue;
        EXPECT_LT(stof, r.time_us)
            << to_string(method) << " (" << bs << "," << seq << ") "
            << dev.name;
      }
    }
  }
}

TEST(E2e, StofBeatsCompileAtLargeScale) {
  // Fig. 12 headline: vs PyTorch Compile at (16, 2048) STOF reaches ~1.4x+.
  const auto model = bert_small();
  const auto opt = fast_options();
  const double compile =
      simulate_e2e(Method::kPytorchCompile, model, 16, 2048,
                   PatternKind::kBigBird, gpusim::a100(), opt)
          .time_us;
  const double stof = simulate_e2e(Method::kStof, model, 16, 2048,
                                   PatternKind::kBigBird, gpusim::a100(), opt)
                          .time_us;
  EXPECT_GT(compile / stof, 1.2);
}

TEST(E2e, UnsupportedConfigsReported) {
  const auto model = bert_small();
  const auto byte = simulate_e2e(Method::kByteTransformer, model, 1, 2048,
                                 PatternKind::kBigBird, gpusim::a100());
  EXPECT_FALSE(byte.supported);
  const auto mcf = simulate_e2e(Method::kMcfuser, model, 16, 4096,
                                PatternKind::kBigBird, gpusim::rtx4090(),
                                fast_options());
  EXPECT_FALSE(mcf.supported);
}

// ---- Fig. 13 ablation ----------------------------------------------------------

TEST(Ablation, BothModulesBeatEitherAlone) {
  const auto model = bert_small();
  const auto opt = fast_options();
  for (const auto& [bs, seq] :
       {std::pair<std::int64_t, std::int64_t>{1, 128}, {8, 512}}) {
    const double native = simulate_e2e(Method::kPytorchNative, model, bs, seq,
                                       PatternKind::kBigBird, gpusim::a100())
                              .time_us;
    const double full =
        simulate_stof_variant(StofVariant::kFull, model, bs, seq,
                              PatternKind::kBigBird, gpusim::a100(), opt)
            .time_us;
    const double mha_only =
        simulate_stof_variant(StofVariant::kMhaOnly, model, bs, seq,
                              PatternKind::kBigBird, gpusim::a100(), opt)
            .time_us;
    const double fusion_only =
        simulate_stof_variant(StofVariant::kFusionOnly, model, bs, seq,
                              PatternKind::kBigBird, gpusim::a100(), opt)
            .time_us;
    EXPECT_LE(full, mha_only) << "(" << bs << "," << seq << ")";
    EXPECT_LE(full, fusion_only) << "(" << bs << "," << seq << ")";
    EXPECT_LT(full, native) << "(" << bs << "," << seq << ")";
    EXPECT_LT(mha_only, native) << "(" << bs << "," << seq << ")";
    EXPECT_LT(fusion_only, native) << "(" << bs << "," << seq << ")";
  }
}

TEST(Ablation, MhaModuleDominatesAtLargeScale) {
  // Fig. 13: the MHA module's contribution exceeds the fusion module's as
  // the input scale grows (MHA becomes the bottleneck).
  const auto model = bert_small();
  const auto opt = fast_options();
  const double mha_only =
      simulate_stof_variant(StofVariant::kMhaOnly, model, 16, 2048,
                            PatternKind::kBigBird, gpusim::a100(), opt)
          .time_us;
  const double fusion_only =
      simulate_stof_variant(StofVariant::kFusionOnly, model, 16, 2048,
                            PatternKind::kBigBird, gpusim::a100(), opt)
          .time_us;
  EXPECT_LT(mha_only, fusion_only);
}

TEST(Ablation, FusionOnlyKeepsMhaDetached) {
  const auto model = bert_small();
  const auto r =
      simulate_stof_variant(StofVariant::kFusionOnly, model, 1, 128,
                            PatternKind::kBigBird, gpusim::a100(),
                            fast_options());
  ASSERT_TRUE(r.tuning.has_value());
  const auto& g = model.build_graph(1, 128);
  const auto starts = g.find_pattern(graph::Graph::mha_pattern());
  for (const auto start : starts) {
    for (const auto& seg : r.tuning->best_plan.scheme.segments()) {
      if (seg.begin == start) {
        EXPECT_EQ(seg.size(), 1) << "MHA must stay detached";
      }
    }
  }
}

}  // namespace
}  // namespace stof::models
