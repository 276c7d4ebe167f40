// Kernel-table dispatch: ISA detection, table registry, telemetry.
#include "stof/core/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "stof/core/check.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {

namespace detail {
#if defined(__x86_64__) || defined(_M_X64)
void fill_avx2(KernelTable& table);    // kernels_avx2.cpp
void fill_avx512(KernelTable& table);  // kernels_avx512.cpp
#endif
#if defined(__aarch64__)
void fill_neon(KernelTable& table);  // kernels_neon.cpp
#endif
}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kNeon:
      return "neon";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool isa_available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kAvx2:
      // F16C and FMA ship on every AVX2 part; require them explicitly
      // because the conversion kernels use cvtph/cvtps_ph and the vector
      // exp uses fused double-precision steps.
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("f16c") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      return isa_available(Isa::kAvx2) &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw");
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return true;  // NEON is baseline on AArch64
#endif
    default:
      return false;
  }
}

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa :
       {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (isa_available(isa)) out.push_back(isa);
  }
  return out;
}

const KernelTable& kernel_table_for(Isa isa) {
  STOF_EXPECTS(isa_available(isa), "requested kernel ISA not supported");
  switch (isa) {
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kAvx2: {
      static const KernelTable table = [] {
        KernelTable t = scalar_kernel_table();
        t.isa = Isa::kAvx2;
        detail::fill_avx2(t);
        return t;
      }();
      return table;
    }
    case Isa::kAvx512: {
      static const KernelTable table = [] {
        KernelTable t = scalar_kernel_table();
        t.isa = Isa::kAvx512;
        detail::fill_avx2(t);    // AVX-512 inherits the AVX2 entries...
        detail::fill_avx512(t);  // ...and overrides the GEMM tiles
        return t;
      }();
      return table;
    }
#endif
#if defined(__aarch64__)
    case Isa::kNeon: {
      static const KernelTable table = [] {
        KernelTable t = scalar_kernel_table();
        t.isa = Isa::kNeon;
        detail::fill_neon(t);
        return t;
      }();
      return table;
    }
#endif
    default:
      return scalar_kernel_table();
  }
}

Isa best_supported_isa() {
  static const Isa best = [] {
    if (const char* force = std::getenv("STOF_FORCE_SCALAR");
        force != nullptr && force[0] != '\0' && !(force[0] == '0' && force[1] == '\0')) {
      return Isa::kScalar;
    }
    Isa pick = Isa::kScalar;
    for (const Isa isa : available_isas()) pick = isa;  // best last
    return pick;
  }();
  return best;
}

namespace {

std::atomic<const KernelTable*>& active_table() {
  static std::atomic<const KernelTable*> table{
      &kernel_table_for(best_supported_isa())};
  return table;
}

void set_kernel_isa(Isa isa) {
  active_table().store(&kernel_table_for(isa), std::memory_order_relaxed);
}

}  // namespace

const KernelTable& kernels() {
  return *active_table().load(std::memory_order_relaxed);
}

Isa active_isa() { return kernels().isa; }

ScopedKernelIsa::ScopedKernelIsa(Isa isa) : previous_(active_isa()) {
  set_kernel_isa(isa);
}

ScopedKernelIsa::~ScopedKernelIsa() { set_kernel_isa(previous_); }

void note_kernel_dispatch(const char* counter, std::int64_t calls) {
  if (!telemetry::enabled()) return;
  telemetry::gauge("exec.dispatch.isa",
                   static_cast<double>(static_cast<int>(active_isa())));
  telemetry::count(counter, calls);
}

}  // namespace stof::core
