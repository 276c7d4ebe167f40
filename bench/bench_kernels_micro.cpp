// google-benchmark microbenchmarks of the *functional* kernels on the host
// CPU.  These measure the reproduction's own execution speed (useful when
// hacking on the kernels); the paper's figures use the simulated device
// times from the other bench binaries.
#include <benchmark/benchmark.h>

#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/reference.hpp"
#include "stof/mha/rowwise_kernel.hpp"
#include "stof/ops/fused.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/sparse/rowwise_mask.hpp"

namespace stof {
namespace {

struct MhaFixture {
  mha::MhaDims dims;
  TensorH q, k, v;
  masks::Mask mask;

  explicit MhaFixture(std::int64_t seq)
      : dims{1, 4, seq, 32},
        q(dims.qkv_shape()),
        k(dims.qkv_shape()),
        v(dims.qkv_shape()),
        mask(masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                             .seq_len = seq}
                 .build()) {
    Rng rng(7);
    q.fill_random(rng);
    k.fill_random(rng);
    v.fill_random(rng);
  }
};

void BM_ReferenceAttention(benchmark::State& state) {
  MhaFixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mha::reference_attention(f.dims, f.q, f.k, f.v, f.mask));
  }
}
BENCHMARK(BM_ReferenceAttention)->Arg(64)->Arg(128)->Arg(256);

void BM_RowwiseAttention(benchmark::State& state) {
  MhaFixture f(state.range(0));
  const auto rw = sparse::RowwiseMask::build(f.mask);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mha::rowwise_attention(f.dims, f.q, f.k, f.v, rw));
  }
}
BENCHMARK(BM_RowwiseAttention)->Arg(64)->Arg(128)->Arg(256);

void BM_BlockwiseAttention(benchmark::State& state) {
  MhaFixture f(state.range(0));
  const auto bsr = sparse::BsrMask::build(f.mask, 16, 16);
  const mha::BlockwiseParams params{16, 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mha::blockwise_attention(f.dims, f.q, f.k, f.v, bsr, params));
  }
}
BENCHMARK(BM_BlockwiseAttention)->Arg(64)->Arg(128)->Arg(256);

void BM_BsrBuild(benchmark::State& state) {
  const auto mask = masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                                    .seq_len = state.range(0)}
                        .build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::BsrMask::build(mask, 64, 64));
  }
}
BENCHMARK(BM_BsrBuild)->Arg(256)->Arg(1024)->Arg(2048);

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(9);
  TensorH a(Shape{1, n, n}), b(Shape{n, n}), c(Shape{1, n, n});
  a.fill_random(rng);
  b.fill_random(rng);
  const TensorF b_wide = b.to_float();  // a model widens its weights at load
  for (auto _ : state) {
    ops::gemm(a, b_wide, c);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_FusedBiasLayernorm(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  Rng rng(11);
  TensorH x(Shape{rows, 256}), bias(Shape{256}), gamma(Shape{256}),
      beta(Shape{256}), y(Shape{rows, 256});
  x.fill_random(rng);
  bias.fill_random(rng);
  gamma.fill_random(rng);
  beta.fill_random(rng);
  for (auto _ : state) {
    ops::fused_bias_layernorm(x, bias, gamma, beta, y);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_FusedBiasLayernorm)->Arg(128)->Arg(1024);

}  // namespace
}  // namespace stof

BENCHMARK_MAIN();
