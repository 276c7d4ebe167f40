// Variable-length batching: serving real traffic without paying for
// padding (the scenario ByteTransformer is built around, handled here by
// STOF's block-sparse machinery).
//
//   $ ./example_varlen_batching
//
// Builds a batch of mixed-length sequences, compares padded-dense cost
// against the variable-length sparse kernel, and verifies the numerics on
// a small slice.  The base mask is analysed into a BSR once; every length
// in the batch derives its own BSR from it.  Exits non-zero if any
// element's output departs from the dense reference.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "stof/core/rng.hpp"
#include "stof/mha/reference.hpp"
#include "stof/mha/varlen.hpp"

using namespace stof;

int main() {
  // A serving batch: one long document, mostly short queries.
  const mha::VarlenBatch batch{2048, {2048, 384, 256, 256, 192, 128, 96, 64}};
  const mha::MhaDims dims{batch.batch(), 12, batch.seq_len, 64};
  const auto device = gpusim::a100();
  const auto base = masks::MaskSpec{.kind = masks::PatternKind::kBigBird,
                                    .seq_len = batch.seq_len}
                        .build();

  std::printf("batch of %lld sequences, padded length %lld\n",
              static_cast<long long>(batch.batch()),
              static_cast<long long>(batch.seq_len));
  std::printf("lengths:");
  for (const auto l : batch.lengths) {
    std::printf(" %lld", static_cast<long long>(l));
  }
  std::printf("\npadding waste under dense batching: %.1f%% of tokens\n\n",
              100.0 * batch.padding_ratio());

  const mha::BlockwiseParams params{64, 64, 4};
  const auto base_bsr =
      sparse::BsrMask::build(base, params.block_m, params.block_n);
  const mha::VarlenBatch padded{
      batch.seq_len,
      std::vector<std::int64_t>(static_cast<std::size_t>(batch.batch()),
                                batch.seq_len)};

  const double t_padded = gpusim::estimate_time_us(
      mha::varlen_cost(dims, base_bsr, padded, params, device), device);
  const double t_varlen = gpusim::estimate_time_us(
      mha::varlen_cost(dims, base_bsr, batch, params, device), device);
  std::printf("MHA cost, padded to %lld everywhere : %10.1f us\n",
              static_cast<long long>(batch.seq_len), t_padded);
  std::printf("MHA cost, variable-length kernel    : %10.1f us  (%.2fx)\n\n",
              t_varlen, t_padded / t_varlen);

  // Numerics check on a small instance of the same shape of batch.
  const mha::VarlenBatch small_batch{64, {64, 24, 10}};
  const mha::MhaDims small_dims{3, 2, 64, 16};
  const auto small_base = masks::MaskSpec{
      .kind = masks::PatternKind::kBigBird, .seq_len = 64}.build();
  const mha::BlockwiseParams small_params{16, 16};
  Rng rng(17);
  TensorH q(small_dims.qkv_shape()), k(small_dims.qkv_shape()),
      v(small_dims.qkv_shape());
  q.fill_random(rng);
  k.fill_random(rng);
  v.fill_random(rng);
  const TensorH out = mha::varlen_attention(
      small_dims, q, k, v,
      sparse::BsrMask::build(small_base, small_params.block_m,
                             small_params.block_n),
      small_batch, small_params);

  // Each element against dense reference attention under its effective
  // mask; padded rows must be exactly zero.
  const mha::MhaDims one{1, small_dims.heads, small_dims.seq_len,
                         small_dims.head_size};
  float max_err = 0.0f;
  bool padded_zero = true;
  for (std::int64_t b = 0; b < small_dims.batch; ++b) {
    const std::int64_t len = small_batch.lengths[static_cast<std::size_t>(b)];
    TensorH qb(one.qkv_shape()), kb(one.qkv_shape()), vb(one.qkv_shape());
    for (std::int64_t h = 0; h < one.heads; ++h) {
      for (std::int64_t s = 0; s < one.seq_len; ++s) {
        for (std::int64_t e = 0; e < one.head_size; ++e) {
          const std::int64_t inst = b * small_dims.heads + h;
          qb.at(h, s, e) = q.at(inst, s, e);
          kb.at(h, s, e) = k.at(inst, s, e);
          vb.at(h, s, e) = v.at(inst, s, e);
        }
      }
    }
    const TensorH ref = mha::reference_attention(
        one, qb, kb, vb, mha::effective_mask(small_base, len));
    for (std::int64_t h = 0; h < one.heads; ++h) {
      for (std::int64_t s = 0; s < one.seq_len; ++s) {
        for (std::int64_t e = 0; e < one.head_size; ++e) {
          const float got = float(out.at(b * small_dims.heads + h, s, e));
          if (s >= len) {
            padded_zero = padded_zero && got == 0.0f;
          } else {
            max_err = std::max(max_err, std::abs(got - float(ref.at(h, s, e))));
          }
        }
      }
    }
  }
  const bool ok = padded_zero && max_err < 4e-3f;
  std::printf("numerics: max |out - reference| = %.2e, padded rows %s\n",
              static_cast<double>(max_err),
              padded_zero ? "exactly zero" : "NON-ZERO (bug!)");
  return ok ? 0 : 1;
}
