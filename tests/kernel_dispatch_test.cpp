// Cross-ISA bit-exactness harness for the runtime-dispatched kernel table.
//
// Every SIMD table must produce outputs byte-identical to the scalar
// reference table — that is the contract that lets the packed engine keep
// its bit-identity guarantee while dispatching to AVX2/AVX-512/NEON at
// runtime.  These tests sweep every ISA available_isas() reports against
// the scalar table: exhaustive half<->float conversion sweeps (including
// NaN payloads, infinities, and denormals), odd-shaped GEMM/dot/axpy
// sweeps, the vector exp against the scalar exp_f32, and the block-wise
// lane tile.
//
// The suite is also registered a second time with STOF_FORCE_SCALAR=1
// (see tests/CMakeLists.txt), which pins best_supported_isa() to scalar
// and exercises the dispatcher's environment override.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "stof/core/half.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/rng.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {
namespace {

bool force_scalar_env() {
  const char* force = std::getenv("STOF_FORCE_SCALAR");
  return force != nullptr && force[0] != '\0' &&
         !(force[0] == '0' && force[1] == '\0');
}

/// The non-scalar ISAs to diff against the reference table.
std::vector<Isa> simd_isas() {
  std::vector<Isa> out;
  for (const Isa isa : available_isas()) {
    if (isa != Isa::kScalar) out.push_back(isa);
  }
  return out;
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Deterministic "random" floats in [-4, 4], including exact zeros.
std::vector<float> random_floats(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto& x : out) {
    x = rng.bernoulli(0.05) ? 0.0f : rng.uniform(-4.0f, 4.0f);
  }
  return out;
}

TEST(KernelDispatch, AvailableIsasStartScalarAndActiveMatchesBest) {
  const auto isas = available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  const Isa best = best_supported_isa();
  EXPECT_TRUE(isa_available(best));
  EXPECT_EQ(active_isa(), best);
  if (force_scalar_env()) {
    EXPECT_EQ(best, Isa::kScalar) << "STOF_FORCE_SCALAR must pin scalar";
  }
  EXPECT_EQ(scalar_kernel_table().isa, Isa::kScalar);
  for (const Isa isa : isas) {
    EXPECT_EQ(kernel_table_for(isa).isa, isa);
  }
}

TEST(KernelDispatch, ScopedIsaSwitchesAndRestores) {
  const Isa before = active_isa();
  {
    ScopedKernelIsa forced(Isa::kScalar);
    EXPECT_EQ(active_isa(), Isa::kScalar);
    EXPECT_EQ(kernels().isa, Isa::kScalar);
  }
  EXPECT_EQ(active_isa(), before);
}

TEST(KernelDispatch, NoteKernelDispatchRecordsGaugeAndCounter) {
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  note_kernel_dispatch("exec.dispatch.axpy.calls", 3);
  note_kernel_dispatch("exec.dispatch.axpy.calls");
  EXPECT_EQ(telemetry::global_registry().gauge("exec.dispatch.isa"),
            static_cast<double>(static_cast<int>(active_isa())));
  EXPECT_EQ(telemetry::global_registry().counter("exec.dispatch.axpy.calls"),
            4);
}

TEST(KernelDispatch, HalfToFloatMatchesScalarForEveryBitPattern) {
  std::vector<half> src;
  src.reserve(1 << 16);
  for (std::uint32_t bits = 0; bits < (1u << 16); ++bits) {
    src.push_back(half::from_bits(static_cast<std::uint16_t>(bits)));
  }
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<float> ref(src.size());
  scalar_kernel_table().half_to_float(src.data(), ref.data(), n);
  for (const Isa isa : simd_isas()) {
    std::vector<float> got(src.size(), -1.0f);
    kernel_table_for(isa).half_to_float(src.data(), got.data(), n);
    // Byte compare: NaN payloads must survive identically too.
    EXPECT_TRUE(bytes_equal(ref, got)) << isa_name(isa);
  }
}

TEST(KernelDispatch, FloatToHalfMatchesScalarOnRandomBitPatternsAndSpecials) {
  Rng rng(0x5eedULL);
  std::vector<float> src;
  for (int i = 0; i < 200000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.next_u64());
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    src.push_back(x);  // any bit pattern: NaNs, infs, denormals included
  }
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float x : {0.0f, -0.0f, inf, -inf, qnan, -qnan, 65504.0f,
                        65520.0f, -65536.0f, 1e-8f, -5.96e-8f, 6.1e-5f}) {
    src.push_back(x);
  }
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<half> ref(src.size());
  scalar_kernel_table().float_to_half(src.data(), ref.data(), n);
  for (const Isa isa : simd_isas()) {
    std::vector<half> got(src.size());
    kernel_table_for(isa).float_to_half(src.data(), got.data(), n);
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size() * sizeof(half)))
        << isa_name(isa);
  }
}

TEST(KernelDispatch, SgemmAccumulateMatchesScalarOnOddShapes) {
  const std::int64_t shapes[][3] = {{1, 1, 1},  {1, 7, 3},   {2, 8, 16},
                                    {3, 13, 17}, {5, 64, 33}, {8, 31, 64},
                                    {17, 96, 48}, {64, 64, 64}};
  for (const auto& shape : shapes) {
    const std::int64_t rows = shape[0], k = shape[1], n = shape[2];
    const auto a = random_floats(rows * k, 11 + rows);
    const auto b = random_floats(k * n, 23 + n);
    auto ref = random_floats(rows * n, 37);  // nonzero initial accumulators
    auto got0 = ref;
    scalar_kernel_table().sgemm_accumulate(a.data(), b.data(), ref.data(),
                                           rows, k, n);
    for (const Isa isa : simd_isas()) {
      auto got = got0;
      kernel_table_for(isa).sgemm_accumulate(a.data(), b.data(), got.data(),
                                             rows, k, n);
      EXPECT_TRUE(bytes_equal(ref, got))
          << isa_name(isa) << " " << rows << "x" << k << "x" << n;
    }
  }
}

TEST(KernelDispatch, DecodePrimitivesMatchScalar) {
  for (const std::int64_t n : {1, 2, 3, 4, 7, 8, 15, 16, 17, 64, 100, 257}) {
    const auto x = random_floats(n, 1000 + n);
    const auto y0 = random_floats(n, 2000 + n);
    const KernelTable& ref = scalar_kernel_table();

    auto ya = y0;
    ref.axpy(ya.data(), x.data(), 1.7f, n);
    auto yb = y0;
    ref.axpby(yb.data(), x.data(), 0.4f, 1.0f, n);
    auto ys = y0;
    ref.scale_inplace(ys.data(), -2.5f, n);
    const float rmax = ref.reduce_max(x.data(), n);

    for (const Isa isa : simd_isas()) {
      const KernelTable& kt = kernel_table_for(isa);
      auto g = y0;
      kt.axpy(g.data(), x.data(), 1.7f, n);
      EXPECT_TRUE(bytes_equal(ya, g)) << isa_name(isa) << " axpy n=" << n;
      g = y0;
      kt.axpby(g.data(), x.data(), 0.4f, 1.0f, n);
      EXPECT_TRUE(bytes_equal(yb, g)) << isa_name(isa) << " axpby n=" << n;
      g = y0;
      kt.scale_inplace(g.data(), -2.5f, n);
      EXPECT_TRUE(bytes_equal(ys, g)) << isa_name(isa) << " scale n=" << n;
      EXPECT_EQ(rmax, kt.reduce_max(x.data(), n))
          << isa_name(isa) << " reduce_max n=" << n;
    }
  }
}

TEST(KernelDispatch, DotRowsMatchesScalarContiguousAndGathered) {
  const std::int64_t d = 48, stride = 57, count = 23;
  const auto q = random_floats(d, 301);
  const auto base = random_floats(64 * stride, 303);
  // Gather indices stored exactly in floats, shuffled, with repeats.
  std::vector<float> idx;
  Rng rng(404);
  for (std::int64_t i = 0; i < count; ++i) {
    idx.push_back(static_cast<float>(rng.next_below(64)));
  }
  const KernelTable& ref = scalar_kernel_table();
  std::vector<float> out_ref(static_cast<std::size_t>(count));
  const float* index_modes[] = {nullptr, idx.data()};
  for (const float* ip : index_modes) {
    ref.dot_rows(q.data(), base.data(), stride, ip, out_ref.data(), count, d);
    for (const Isa isa : simd_isas()) {
      std::vector<float> got(static_cast<std::size_t>(count), -1.0f);
      kernel_table_for(isa).dot_rows(q.data(), base.data(), stride, ip,
                                     got.data(), count, d);
      EXPECT_TRUE(bytes_equal(out_ref, got))
          << isa_name(isa) << (ip == nullptr ? " contiguous" : " gathered");
    }
  }
}

constexpr float kInf = std::numeric_limits<float>::infinity();

/// A strided sweep of the non-positive floats (-0 through -inf, every
/// 4099th bit pattern) plus the domain's edges.
std::vector<float> exp_sweep() {
  std::vector<float> xs;
  for (std::uint64_t b = 0x80000000u; b <= 0xff800000u; b += 4099) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  }
  const float under = exp_f32_detail::kUnderflow;
  for (const float x :
       {-0.0f, -87.33f, -88.0f, under, std::nextafter(under, -kInf),
        std::nextafter(under, 0.0f), -kInf,
        -std::numeric_limits<float>::min(),
        -std::numeric_limits<float>::denorm_min(), -1e-10f, -1.0f}) {
    xs.push_back(x);
  }
  return xs;
}

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(KernelDispatch, ExpRowMatchesScalarExpF32OnEveryIsa) {
  const auto xs = exp_sweep();
  const auto n = static_cast<std::int64_t>(xs.size());
  std::vector<float> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) want[i] = exp_f32(xs[i]);
  EXPECT_EQ(bits_of(exp_f32(-0.0f)), bits_of(1.0f));
  EXPECT_EQ(bits_of(exp_f32(-kInf)), 0u);
  EXPECT_EQ(bits_of(exp_f32(std::nextafter(exp_f32_detail::kUnderflow,
                                           -kInf))),
            0u);
  EXPECT_GT(exp_f32(exp_f32_detail::kUnderflow), 0.0f);
  EXPECT_TRUE(std::isnan(exp_f32(std::numeric_limits<float>::quiet_NaN())));

  for (const Isa isa : available_isas()) {
    const KernelTable& kt = kernel_table_for(isa);
    std::vector<float> got(xs.size(), -1.0f);
    kt.exp_row(xs.data(), got.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(bits_of(want[i]), bits_of(got[i]))
          << isa_name(isa) << " exp(" << std::hexfloat << xs[i] << ")";
    }
    // Short rows exercise every tail length, in place.
    for (std::int64_t len = 1; len <= 33; ++len) {
      std::vector<float> row(xs.end() - len - 7, xs.end() - 7);
      kt.exp_row(row.data(), row.data(), len);
      for (std::int64_t i = 0; i < len; ++i) {
        ASSERT_EQ(bits_of(want[xs.size() - 7 - len + i]),
                  bits_of(row[static_cast<std::size_t>(i)]))
            << isa_name(isa) << " len=" << len << " i=" << i;
      }
    }
  }
}

TEST(KernelDispatch, ExpF32IsWithinOneUlpOfStdExp) {
  for (const float x : exp_sweep()) {
    if (x == -kInf) continue;
    const auto want = static_cast<float>(std::exp(static_cast<double>(x)));
    const float got = exp_f32(x);
    const std::int64_t ulps = static_cast<std::int64_t>(bits_of(got)) -
                              static_cast<std::int64_t>(bits_of(want));
    ASSERT_LE(std::abs(ulps), 1) << std::hexfloat << "exp(" << x << ") = "
                                 << got << ", std::exp gives " << want;
  }
}

/// Score modifier for the lane-tile test: depends on (row, column) only.
void tilt_scores(void*, float* s, std::int64_t ld, std::int64_t row0,
                 std::int64_t rows, std::int64_t cols) {
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t i = 0; i < rows; ++i) {
      s[c * ld + i] = s[c * ld + i] * 0.5f -
                      0.01f * static_cast<float>(row0 + i) +
                      0.02f * static_cast<float>(c);
    }
  }
}

struct LaneTileRun {
  std::vector<float> m, l, acc;
};

/// Row strides of a lane tile's K and V operands, and the element offset
/// of the viewed head inside each row (a KV-pool page stores a token's
/// heads side by side, so head h starts h * d into the row).
struct LaneLayout {
  const char* name;
  std::int64_t ldk_extra;  ///< ldk = d * ld_heads + ldk_extra
  std::int64_t ldv_extra;
  std::int64_t ld_heads;
  std::int64_t head;
};

constexpr LaneLayout kLaneLayouts[] = {
    {"tight", 0, 0, 1, 0},     // a padded tensor's float panel: stride d
    {"pool", 0, 0, 4, 2},      // a KV page with 4 heads, viewing head 2
    {"odd", 3, 7, 1, 0},       // odd strides, unequal for K and V
};

/// Lays out `rows` logical rows of `d` floats at stride `ld`, starting
/// `off` into each row; the gaps hold NaN so a stray read shows.
std::vector<float> strided(const std::vector<float>& dense, std::int64_t rows,
                           std::int64_t d, std::int64_t ld, std::int64_t off) {
  std::vector<float> out(static_cast<std::size_t>(rows * ld),
                         std::numeric_limits<float>::quiet_NaN());
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy_n(dense.data() + r * d, d, out.data() + r * ld + off);
  }
  return out;
}

/// Four chained key blocks through one table's lane tile: a part block
/// whose bitmap leaves some rows fully masked, a full block, a part block
/// with tail columns, and a band whose leading and trailing columns are
/// masked in every row.  `inf_v` puts +inf in a V row of a masked column:
/// 0 * inf is NaN, so a table must visit that column as the scalar loop
/// does.  K and V are row-major at the strides `layout` gives.
LaneTileRun run_lane_tile(const KernelTable& kt, std::int64_t rows,
                          std::int64_t d, std::int64_t bn, bool hook,
                          bool inf_v, const LaneLayout& layout) {
  constexpr std::int64_t kBlocks = 4;
  const std::int64_t lanes =
      (rows + kLaneTileWidth - 1) / kLaneTileWidth * kLaneTileWidth;
  const std::int64_t keys = kBlocks * bn;
  std::vector<float> qt(static_cast<std::size_t>(d * lanes), 0.0f);
  const auto q = random_floats(d * rows, 50 + rows);
  for (std::int64_t e = 0; e < d; ++e) {
    for (std::int64_t r = 0; r < rows; ++r) {
      qt[static_cast<std::size_t>(e * lanes + r)] =
          q[static_cast<std::size_t>(e * rows + r)];
    }
  }
  auto v_dense = random_floats(keys * d, 70 + d);
  if (inf_v) v_dense[static_cast<std::size_t>((3 * bn + 1) * d + d / 2)] = kInf;
  const std::int64_t off = layout.head * d;
  const std::int64_t ldk = d * layout.ld_heads + layout.ldk_extra;
  const std::int64_t ldv = d * layout.ld_heads + layout.ldv_extra;
  const auto k = strided(random_floats(keys * d, 60 + d), keys, d, ldk, off);
  const auto v = strided(v_dense, keys, d, ldv, off);
  Rng rng(80 + static_cast<std::uint64_t>(bn));
  const auto bitmap = [&](auto bit) {
    std::vector<std::uint8_t> out(static_cast<std::size_t>(lanes * bn));
    for (std::int64_t r = 0; r < lanes; ++r) {
      for (std::int64_t c = 0; c < bn; ++c) {
        out[static_cast<std::size_t>(r * bn + c)] =
            r % 5 != 2 && bit(r, c) ? 1 : 0;
      }
    }
    return out;
  };
  const auto part = bitmap([&](auto, auto) { return rng.bernoulli(0.6); });
  const auto part2 = bitmap([&](auto, auto) { return rng.bernoulli(0.7); });
  const auto band = bitmap([&](std::int64_t r, std::int64_t c) {
    return c >= 3 && c < 3 + r % 4 + bn / 4 && rng.bernoulli(0.8);
  });

  LaneTileRun run{std::vector<float>(static_cast<std::size_t>(lanes), -kInf),
                  std::vector<float>(static_cast<std::size_t>(lanes), 0.0f),
                  std::vector<float>(static_cast<std::size_t>(d * lanes),
                                     0.0f)};
  std::vector<float> s(static_cast<std::size_t>(bn * kLaneTileWidth));
  const LaneTile tile{qt.data(), run.m.data(),  run.l.data(), run.acc.data(),
                      s.data(),  rows,          lanes,        d};
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const LaneScoreHook h = hook ? &tilt_scores : nullptr;
  const std::uint8_t* bitmaps[kBlocks] = {part.data(), nullptr, part2.data(),
                                          band.data()};
  for (std::int64_t blk = 0; blk < kBlocks; ++blk) {
    const std::int64_t cols = blk == 2 ? bn - 3 : bn;
    kt.attn_lane_block(
        tile, LaneBlock{k.data() + blk * bn * ldk + off, ldk,
                        v.data() + blk * bn * ldv + off, ldv, cols,
                        bitmaps[blk], bn, scale, h, nullptr});
  }
  return run;
}

TEST(KernelDispatch, LaneTileMatchesScalarOnEveryIsa) {
  // Every table, at every K/V row stride, must reproduce the scalar table
  // on tight panels byte for byte: the stride only says where a row lives.
  std::vector<Isa> isas = simd_isas();
  isas.insert(isas.begin(), Isa::kScalar);
  for (const std::int64_t rows : {1, 7, 16, 23, 64}) {
    for (const std::int64_t d : {5, 16, 24, 32, 64}) {
      for (const std::int64_t bn : {16, 32, 64}) {
        for (const bool hook : {false, true}) {
          for (const bool inf_v : {false, true}) {
            const auto ref = run_lane_tile(scalar_kernel_table(), rows, d, bn,
                                           hook, inf_v, kLaneLayouts[0]);
            for (const Isa isa : isas) {
              for (const LaneLayout& layout : kLaneLayouts) {
                const auto got = run_lane_tile(kernel_table_for(isa), rows, d,
                                               bn, hook, inf_v, layout);
                EXPECT_TRUE(bytes_equal(ref.m, got.m) &&
                            bytes_equal(ref.l, got.l) &&
                            bytes_equal(ref.acc, got.acc))
                    << isa_name(isa) << " layout=" << layout.name
                    << " rows=" << rows << " d=" << d << " bn=" << bn
                    << " hook=" << hook << " inf_v=" << inf_v;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace stof::core
