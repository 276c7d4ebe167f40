// Unit tests of the cross-call float-panel cache: hit/miss semantics,
// version-tag invalidation with handles that outlive their entry, the
// tensor storage-identity/mutation-stamp plumbing it keys on, the
// whole-tensor fetch (float_panel) the GEMM and MHA kernels share, and
// panel lifetime: an entry dies with the storage it was converted from.
#include <gtest/gtest.h>

#include <vector>

#include "stof/core/panel_cache_registry.hpp"
#include "stof/core/rng.hpp"
#include "stof/core/tensor.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {
namespace {

/// Converter writing a recognisable 8-element pattern: dst[i] = base + i.
PanelCacheRegistry::Converter pattern(float base) {
  return [base](float* dst) {
    for (std::int64_t i = 0; i < 8; ++i) dst[i] = base + static_cast<float>(i);
  };
}

TEST(PanelCacheRegistry, MissThenHitConvertsOnce) {
  PanelCacheRegistry reg;
  const std::uint64_t key = next_storage_id();
  const PanelRef first = reg.get_or_convert(key, 0, 8, pattern(100));
  EXPECT_EQ(first.converted_elems, 8);
  EXPECT_EQ(first.data()[3], 103.0f);

  const PanelRef again = reg.get_or_convert(key, 0, 8, pattern(999));
  EXPECT_EQ(again.converted_elems, 0);  // pure hit, converter not invoked
  EXPECT_EQ(again.data()[3], 103.0f);
  EXPECT_EQ(again.buffer.get(), first.buffer.get());

  const auto s = reg.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.bytes_converted, 8 * 2);  // source half bytes
  EXPECT_EQ(reg.entry_count(), 1u);
  EXPECT_EQ(reg.resident_bytes(), 8 * sizeof(float));
}

TEST(PanelCacheRegistry, StaleVersionReconvertsInFull) {
  PanelCacheRegistry reg;
  const std::uint64_t key = next_storage_id();
  const PanelRef stale = reg.get_or_convert(key, 0, 8, pattern(0));
  const PanelRef fresh = reg.get_or_convert(key, 1, 8, pattern(500));
  EXPECT_EQ(fresh.converted_elems, 8);
  EXPECT_EQ(fresh.data()[0], 500.0f);
  EXPECT_NE(fresh.buffer.get(), stale.buffer.get());
  const auto s = reg.stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(reg.entry_count(), 1u);
  EXPECT_EQ(reg.resident_bytes(), 8 * sizeof(float));

  // The discarded entry's handle outlives it: pointer and contents intact.
  EXPECT_EQ(stale.data()[0], 0.0f);
  EXPECT_EQ(stale.data()[7], 7.0f);
}

// ---- Tensor storage identity / mutation stamps -----------------------------

TEST(TensorStamp, AllocationGetsUniqueStorageId) {
  TensorH a(Shape{4, 4}), b(Shape{4, 4});
  EXPECT_NE(a.storage_id(), 0u);
  EXPECT_NE(b.storage_id(), 0u);
  EXPECT_NE(a.storage_id(), b.storage_id());
  EXPECT_EQ(TensorH{}.storage_id(), 0u);  // empty tensor has no storage
}

TEST(TensorStamp, MutableAccessorsBumpVersion) {
  TensorH t(Shape{4, 4});
  const std::uint64_t v0 = t.version();
  t.at(1, 2) = half(1.0f);
  EXPECT_GT(t.version(), v0);
  const std::uint64_t v1 = t.version();
  (void)t.data();  // mutable span counts as a write
  EXPECT_GT(t.version(), v1);
  const std::uint64_t v2 = t.version();
  Rng rng(7);
  t.fill_random(rng);
  EXPECT_GT(t.version(), v2);

  // Const access never stamps.
  const TensorH& ct = t;
  const std::uint64_t v3 = t.version();
  (void)ct.at(0, 0);
  (void)ct.data();
  EXPECT_EQ(t.version(), v3);
}

TEST(TensorStamp, CopyGetsFreshIdentityMoveKeepsIt) {
  TensorH t(Shape{2, 2});
  t.at(0, 0) = half(3.0f);
  const std::uint64_t id = t.storage_id();

  TensorH copy = t;
  EXPECT_NE(copy.storage_id(), id);
  EXPECT_NE(copy.storage_id(), 0u);
  EXPECT_EQ(copy.version(), 0u);  // fresh storage, fresh stamp

  TensorH moved = std::move(t);
  EXPECT_EQ(moved.storage_id(), id);   // same buffer, same identity
  EXPECT_EQ(t.storage_id(), 0u);       // NOLINT: moved-from is storage-less
}

TEST(FloatPanel, WholeTensorConvertsOncePerVersion) {
  Rng rng(21);
  TensorH t(Shape{3, 8, 4});
  t.fill_random(rng);
  const TensorH& ct = t;
  const PanelRef first = float_panel(t);
  EXPECT_EQ(first.converted_elems, t.numel());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    ASSERT_EQ(first.data()[i], float(ct.data()[static_cast<std::size_t>(i)]));
  }
  const PanelRef hit = float_panel(t);
  EXPECT_EQ(hit.converted_elems, 0);
  EXPECT_EQ(hit.buffer.get(), first.buffer.get());

  t.at(2, 7, 3) = half(0.5f);  // a write bumps the version
  const PanelRef fresh = float_panel(t);
  EXPECT_EQ(fresh.converted_elems, t.numel());
  EXPECT_EQ(fresh.data()[t.numel() - 1], 0.5f);
}

TEST(FloatPanel, MhaFetchCountsConvertedInstancePanels) {
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  Rng rng(22);
  TensorH k(Shape{3, 8, 4}), v(Shape{3, 8, 4});
  k.fill_random(rng);
  v.fill_random(rng);
  const auto converted = [] {
    return telemetry::global_registry().counter("exec.mha.panels_converted");
  };
  (void)mha::fetch_kv_panels(k, v);
  EXPECT_EQ(converted(), 6);  // K and V, 3 instances each
  (void)mha::fetch_kv_panels(k, v);
  EXPECT_EQ(converted(), 6);  // both hits
  v.at(0, 0, 0) = half(1.0f);
  (void)mha::fetch_kv_panels(k, v);
  EXPECT_EQ(converted(), 9);  // only V reconverts
}

// ---- Panel lifetime: an entry lives exactly as long as its storage ---------

TensorH random_weight(Shape shape, std::uint64_t seed) {
  TensorH t(shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

TEST(PanelLifetime, DestroyingATensorDropsItsFloatPanel) {
  PanelCacheRegistry& reg = global_panel_cache();
  const std::size_t entries = reg.entry_count();
  const std::size_t bytes = reg.resident_bytes();
  {
    const TensorH w = random_weight(Shape{16, 8}, 31);
    const TensorH a = random_weight(Shape{1, 4, 16}, 32);
    TensorH c(Shape{1, 4, 8});
    ops::gemm(a, w, c);  // FP32 weight panel
    EXPECT_EQ(reg.entry_count(), entries + 1);
    EXPECT_GT(reg.resident_bytes(), bytes);
  }
  EXPECT_EQ(reg.entry_count(), entries);
  EXPECT_EQ(reg.resident_bytes(), bytes);
}

TEST(PanelLifetime, AssigningOverATensorDropsItsPanels) {
  PanelCacheRegistry& reg = global_panel_cache();
  const std::size_t entries = reg.entry_count();
  const std::size_t bytes = reg.resident_bytes();
  const TensorH source = random_weight(Shape{8, 8}, 33);

  TensorH copied = random_weight(Shape{8, 8}, 34);
  (void)float_panel(copied);
  EXPECT_EQ(reg.entry_count(), entries + 1);
  copied = source;  // copy-assign: the old storage dies
  EXPECT_EQ(reg.entry_count(), entries);
  EXPECT_EQ(reg.resident_bytes(), bytes);

  TensorH moved_over = random_weight(Shape{8, 8}, 35);
  (void)float_panel(moved_over);
  EXPECT_EQ(reg.entry_count(), entries + 1);
  moved_over = random_weight(Shape{8, 8}, 36);  // move-assign
  EXPECT_EQ(reg.entry_count(), entries);
  EXPECT_EQ(reg.resident_bytes(), bytes);

  // A moved tensor carries its mark: the panel dies with the new owner.
  TensorH donor = random_weight(Shape{8, 8}, 37);
  (void)float_panel(donor);
  {
    const TensorH owner = std::move(donor);
    const TensorH& empty = donor;  // NOLINT: moved-from is storage-less
    EXPECT_EQ(empty.storage_id(), 0u);
    EXPECT_EQ(reg.entry_count(), entries + 1);
  }
  EXPECT_EQ(reg.entry_count(), entries);
  EXPECT_EQ(reg.resident_bytes(), bytes);
}

TEST(PanelLifetime, PanelRefOutlivesItsTensor) {
  PanelRef ref;
  std::vector<float> want;
  {
    const TensorH t = random_weight(Shape{5, 7}, 38);
    ref = float_panel(t);
    for (const half h : t.data()) want.push_back(float(h));
  }
  ASSERT_TRUE(ref);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(ref.data()[i], want[i]) << i;
  }
}

TEST(PanelLifetime, FreshLayerHeadsLeaveNothingResident) {
  PanelCacheRegistry& reg = global_panel_cache();
  const std::size_t before = reg.resident_bytes();
  serve::ModelSpec spec;
  spec.kind = serve::ModelKind::kGptDecoder;
  std::size_t live = 0;
  for (int i = 0; i < 50; ++i) {
    const serve::ModelRuntime head(spec, /*heads=*/4, /*head_size=*/32,
                                   gpusim::rtx4090(), /*with_weights=*/true);
    if (i == 0) live = reg.resident_bytes();
    ASSERT_GT(live, before);
    ASSERT_EQ(reg.resident_bytes(), live) << "runtime " << i;
  }
  EXPECT_EQ(reg.resident_bytes(), before);
}

}  // namespace
}  // namespace stof::core
