// Exhaustive check of the softmax exp: every non-positive float, from -0
// through -inf (2,139,095,041 inputs), on every kernel ISA the host runs.
//
//   * Each table's `exp_row` must be byte-identical to the scalar
//     `core::exp_f32` (the contract the attention kernels rely on).
//   * On x86-64 glibc >= 2.28 with AVX2 + FMA, where libm dispatches `expf`
//     to its FMA variant, `exp_f32` must also equal `std::exp` bit for bit:
//     exp_f32 is a port of that function.
//
// Usage: exp_exhaustive   (about a minute; exits 1 on any mismatch)
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "stof/core/kernels.hpp"

namespace {

using stof::core::Isa;

bool libm_is_fma_expf() {
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

int main() {
  constexpr std::uint64_t kFirst = 0x80000000u;  // -0
  constexpr std::uint64_t kLast = 0xff800000u;   // -inf
  constexpr std::uint64_t kChunk = 1u << 20;
  const auto isas = stof::core::available_isas();
  const bool check_libm = libm_is_fma_expf();

  std::vector<std::uint64_t> mismatches(isas.size(), 0);
  std::uint64_t libm_mismatches = 0;
  std::vector<float> x(kChunk), want(kChunk), got(kChunk);
  for (std::uint64_t lo = kFirst; lo <= kLast; lo += kChunk) {
    const auto n = static_cast<std::int64_t>(std::min(kChunk, kLast + 1 - lo));
    for (std::int64_t i = 0; i < n; ++i) {
      x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(lo + i));
      want[i] = stof::core::exp_f32(x[i]);
    }
    for (std::size_t k = 0; k < isas.size(); ++k) {
      stof::core::kernel_table_for(isas[k]).exp_row(x.data(), got.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        if (std::bit_cast<std::uint32_t>(got[i]) ==
            std::bit_cast<std::uint32_t>(want[i])) {
          continue;
        }
        if (mismatches[k]++ < 5) {
          std::printf("%s: exp(%a) = %a, exp_f32 gives %a\n",
                      stof::core::isa_name(isas[k]), x[i], got[i], want[i]);
        }
      }
    }
    if (check_libm) {
      for (std::int64_t i = 0; i < n; ++i) {
        const float ref = std::exp(x[i]);
        if (std::bit_cast<std::uint32_t>(ref) ==
            std::bit_cast<std::uint32_t>(want[i])) {
          continue;
        }
        if (libm_mismatches++ < 5) {
          std::printf("libm: expf(%a) = %a, exp_f32 gives %a\n", x[i], ref,
                      want[i]);
        }
      }
    }
  }

  bool ok = true;
  for (std::size_t k = 0; k < isas.size(); ++k) {
    std::printf("%-7s exp_row vs exp_f32: %llu mismatches\n",
                stof::core::isa_name(isas[k]),
                static_cast<unsigned long long>(mismatches[k]));
    ok = ok && mismatches[k] == 0;
  }
  if (check_libm) {
    std::printf("libm    expf vs exp_f32:    %llu mismatches\n",
                static_cast<unsigned long long>(libm_mismatches));
    ok = ok && libm_mismatches == 0;
  } else {
    std::printf("libm    expf vs exp_f32:    skipped (not glibc FMA expf)\n");
  }
  std::printf("%llu inputs per check: %s\n",
              static_cast<unsigned long long>(kLast - kFirst + 1),
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
