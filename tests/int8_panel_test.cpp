// INT8 quantized panel tier: round-trip error properties of the symmetric
// per-group quantizer, the registry's int8 hit/reconvert semantics
// (including coexistence with float panels of the same storage), and the
// serve KvPool int8 sidecar's row-by-row quantization exactness over
// filling pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "stof/core/packed.hpp"
#include "stof/core/panel_cache_registry.hpp"
#include "stof/core/rng.hpp"
#include "stof/core/tensor.hpp"
#include "stof/serve/kv_pool.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {
namespace {

/// Per-group round-trip property: every element must land within half a
/// quantization step of its code (plus a denormal-absorbing epsilon).
void expect_round_trip_bound(const std::vector<half>& src,
                             std::int64_t group) {
  ASSERT_EQ(src.size() % static_cast<std::size_t>(group), 0u);
  const auto count = static_cast<std::int64_t>(src.size());
  std::vector<std::int8_t> codes(src.size());
  std::vector<float> scales(src.size() / static_cast<std::size_t>(group));
  packed::quantize_halfs(src, group, codes.data(), scales.data());
  for (std::int64_t g = 0; g < count / group; ++g) {
    const float scale = scales[static_cast<std::size_t>(g)];
    ASSERT_TRUE(std::isfinite(scale) && scale > 0.0f) << "group " << g;
    for (std::int64_t i = g * group; i < (g + 1) * group; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const float x = float(src[ui]);
      const float rebuilt = scale * static_cast<float>(codes[ui]);
      // 0.502 instead of 0.5: one rounding of the scale itself.
      EXPECT_LE(std::abs(x - rebuilt), scale * 0.502f + 1e-38f)
          << "elem " << i << " src " << x << " code " << int(codes[ui])
          << " scale " << scale;
    }
  }
}

std::vector<half> halfs(const std::vector<float>& src) {
  return {src.begin(), src.end()};
}

TEST(Int8Quantize, RoundTripBoundOnRandomInputs) {
  Rng rng(42);
  for (const std::int64_t group : {1, 4, 16, 64}) {
    std::vector<half> src(static_cast<std::size_t>(group * 13));
    for (auto& x : src) x = half(rng.uniform(-8.0f, 8.0f));
    expect_round_trip_bound(src, group);
  }
}

TEST(Int8Quantize, RoundTripBoundOnSubnormalHeavyInputs) {
  Rng rng(43);
  // Groups of half subnormals (|x| < 2^-14), some all-subnormal, some
  // mixing subnormals with one normal value.
  std::vector<half> src;
  for (int g = 0; g < 8; ++g) {
    for (int i = 0; i < 16; ++i) {
      src.push_back(half(rng.uniform(-1.0f, 1.0f) * 6e-5f));
    }
    if (g % 2 == 1) src.back() = half(0.25f);  // normal absmax for odd groups
  }
  expect_round_trip_bound(src, 16);
}

TEST(Int8Quantize, RoundTripBoundOnConstantAndZeroInputs) {
  expect_round_trip_bound(halfs(std::vector<float>(64, 3.5f)), 16);
  expect_round_trip_bound(halfs(std::vector<float>(64, -1e-3f)), 8);
  // An all-zero group takes the degenerate all-zero-code branch.
  expect_round_trip_bound(halfs(std::vector<float>(64, 0.0f)), 16);
}

TEST(Int8Quantize, AbsMaxElementGetsFullCode) {
  const std::vector<half> src = halfs({0.1f, -2.0f, 0.5f, 1.0f});
  std::vector<std::int8_t> codes(4);
  std::vector<float> scales(1);
  packed::quantize_halfs(src, 4, codes.data(), scales.data());
  EXPECT_FLOAT_EQ(scales[0], 2.0f / 127.0f);
  EXPECT_EQ(codes[1], -127);
}

TEST(Int8Quantize, QuantizeHalfsMatchesPerElementReference) {
  // Scale absmax/127 per group, codes round-to-nearest-even and clamped.
  Rng rng(44);
  const std::int64_t group = 32, count = group * 7;
  std::vector<half> src(static_cast<std::size_t>(count));
  for (auto& x : src) x = half(rng.uniform(-2.0f, 2.0f));
  std::vector<std::int8_t> codes(src.size());
  std::vector<float> scales(7);
  packed::quantize_halfs(src, group, codes.data(), scales.data());
  for (std::int64_t g = 0; g < count / group; ++g) {
    float abs_max = 0.0f;
    for (std::int64_t i = g * group; i < (g + 1) * group; ++i) {
      abs_max = std::max(abs_max,
                         std::abs(float(src[static_cast<std::size_t>(i)])));
    }
    const QuantParams qp = quant_params(abs_max);
    EXPECT_EQ(scales[static_cast<std::size_t>(g)], qp.scale);
    for (std::int64_t i = g * group; i < (g + 1) * group; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const long want =
          std::clamp(std::lrintf(float(src[ui]) * qp.inv_scale), -127L, 127L);
      EXPECT_EQ(codes[ui], want) << "elem " << i;
    }
  }
}

// ---- Registry int8 entries --------------------------------------------------

/// Int8 converter quantizing the whole captured source vector per `group`.
PanelCacheRegistry::Int8Converter quantizer(const std::vector<half>& src,
                                            std::int64_t group) {
  return [&src, group](std::int8_t* codes, float* scales) {
    packed::quantize_halfs(src, group, codes, scales);
  };
}

TEST(PanelCacheRegistryInt8, MissThenHitQuantizesOnce) {
  PanelCacheRegistry reg;
  Rng rng(7);
  std::vector<half> src(64);
  for (auto& x : src) x = half(rng.uniform(-1.0f, 1.0f));
  const PanelKey key{next_storage_id(), kPanelRowMajor | kPanelInt8};

  const Int8PanelRef first =
      reg.get_or_convert_int8(key, 0, 64, 16, quantizer(src, 16));
  EXPECT_EQ(first.converted_elems, 64);
  EXPECT_EQ(reg.stats().bytes_converted, 64);  // 1 byte per int8 element

  // Pure hit: the converter is not invoked and the same codes come back.
  const std::vector<std::int8_t> codes(first.data(), first.data() + 64);
  src.assign(64, half(0.0f));  // a re-quantize would be visible
  const Int8PanelRef hit =
      reg.get_or_convert_int8(key, 0, 64, 16, quantizer(src, 16));
  EXPECT_EQ(hit.converted_elems, 0);
  EXPECT_EQ(hit.codes.get(), first.codes.get());
  EXPECT_EQ(0, std::memcmp(codes.data(), hit.data(), codes.size()));
  EXPECT_EQ(reg.stats().hits, 1);
  EXPECT_EQ(reg.stats().bytes_converted, 64);
}

TEST(PanelCacheRegistryInt8, StaleVersionReconverts) {
  PanelCacheRegistry reg;
  std::vector<half> src(16, half(1.0f));
  const PanelKey key{next_storage_id(), kPanelRowMajor | kPanelInt8};
  (void)reg.get_or_convert_int8(key, 0, 16, 16, quantizer(src, 16));
  src.assign(16, half(2.0f));
  const Int8PanelRef fresh =
      reg.get_or_convert_int8(key, 1, 16, 16, quantizer(src, 16));
  EXPECT_EQ(fresh.converted_elems, 16);
  EXPECT_FLOAT_EQ(fresh.scale_data()[0], 2.0f / 127.0f);
  EXPECT_EQ(reg.stats().invalidations, 1);
}

TEST(PanelCacheRegistryInt8, CoexistsWithFloatPanelOfSameStorage) {
  PanelCacheRegistry reg;
  Rng rng(8);
  std::vector<half> src(32);
  for (auto& x : src) x = half(rng.uniform(-1.0f, 1.0f));
  const std::uint64_t storage = next_storage_id();

  const PanelRef f =
      reg.get_or_convert({storage, kPanelRowMajor}, 0, 32, [&src](float* dst) {
        packed::half_to_float(src, {dst, src.size()});
      });
  const Int8PanelRef q = reg.get_or_convert_int8(
      {storage, kPanelRowMajor | kPanelInt8}, 0, 32, 32, quantizer(src, 32));
  EXPECT_EQ(reg.entry_count(), 2u);  // distinct keys, no aliasing
  EXPECT_EQ(f.data()[5], float(src[5]));
  EXPECT_NEAR(q.scale_data()[0] * float(q.data()[5]), float(src[5]),
              q.scale_data()[0]);
}

TEST(PanelCacheRegistryInt8, ResidentBytesCoverCodesAndScales) {
  PanelCacheRegistry reg;
  std::vector<half> src(64, half(1.0f));
  (void)reg.get_or_convert_int8({next_storage_id(), kPanelInt8}, 0, 64, 16,
                                quantizer(src, 16));
  // 64 codes + 4 scales.
  EXPECT_EQ(reg.resident_bytes(), 64 * sizeof(std::int8_t) +
                                      4 * sizeof(float));
}

// ---- Serve KvPool int8 sidecar ----------------------------------------------

TEST(KvPoolInt8, ExtensionOverFillingPageIsExact) {
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  serve::KvPoolConfig cfg;
  cfg.num_blocks = 4;
  cfg.block_tokens = 4;
  cfg.heads = 2;
  cfg.head_size = 4;
  serve::KvPool pool(cfg);
  const serve::SessionId id = 1;
  const std::int64_t row = cfg.heads * cfg.head_size;
  Rng rng(11);

  std::vector<std::int8_t> first_row_codes;
  std::vector<float> first_row_scale;
  for (std::int64_t t = 0; t < 6; ++t) {  // crosses a page boundary
    const auto slot = pool.append_token(id);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t e = 0; e < row; ++e) {
      slot->k[e] = half(rng.uniform(-1.0f, 1.0f));
      slot->v[e] = half(rng.uniform(-1.0f, 1.0f));
    }
    const auto view =
        std::get<mha::KvInt8Pages>(pool.sidecar(id, PanelPrecision::kInt8));
    const auto kb = view.k_blocks;
    const auto ks = view.k_scales;
    ASSERT_EQ(kb.size(), static_cast<std::size_t>(pool.blocks(id)));
    if (t == 0) {
      first_row_codes.assign(kb[0], kb[0] + row);
      first_row_scale.assign(ks[0], ks[0] + 1);
    } else {
      // Quantize-once with per-token-row scales: the first row's codes and
      // scale never change as later rows fill the page (or new pages open).
      EXPECT_EQ(0, std::memcmp(first_row_codes.data(), kb[0],
                               first_row_codes.size()));
      EXPECT_EQ(first_row_scale[0], ks[0][0]);
    }
  }

  // One int8 byte per element per side.
  EXPECT_EQ(
      telemetry::global_registry().counter("serve.kv.sidecar_bytes_converted"),
      2 * 6 * row);

  // Release recycles the pages: a new tenant of the same block quantizes
  // fresh codes (its watermark starts at 0), never the old tenant's.
  pool.release(id);
  const serve::SessionId other = 2;
  const auto slot = pool.append_token(other);
  ASSERT_TRUE(slot.has_value());
  for (std::int64_t e = 0; e < row; ++e) {
    slot->k[e] = half(0.5f);
    slot->v[e] = half(0.5f);
  }
  const auto kb =
      std::get<mha::KvInt8Pages>(pool.sidecar(other, PanelPrecision::kInt8))
          .k_blocks;
  EXPECT_EQ(kb[0][0], 127);  // constant row quantizes to the full code
}

}  // namespace
}  // namespace stof::core
