// FP32 K/V panel cache for the packed attention kernels.
//
// The block-wise kernel visits every valid (Q-block row, K/V block) pair,
// so without a cache each K/V tile is converted half->float once per
// Q-block row that loads it — a rows()-fold redundancy (the CPU analogue
// of the redundant wmma format conversions Fused3S eliminates on tensor
// cores).  KvPanelCache converts each K/V *instance* at most once per
// kernel call, in parallel across instances:
//
//   * the FP32 tier stores K and V row-major (seq x d), the layout the
//     half source already has: the block-wise lane tile reads a key row's
//     elements as scalar broadcasts, so it gains nothing from a transpose,
//     and the row-wise kernel dots whole K rows;
//   * the INT8 tier stores K codes transposed (d x seq) for the int8 tile
//     GEMM of the block-wise kernel, V codes row-major.
//
// Two ownership modes:
//
//   * Owning (registry == nullptr): panels live in this object and are
//     reconverted on every construction — the PR 2 per-call behaviour.
//   * External (registry != nullptr): panels are fetched from a
//     core::PanelCacheRegistry keyed on the K/V tensors' storage identity
//     and version, so repeated calls over unmodified tensors (bench reps,
//     decode replays, tuner candidate evaluations) reuse one conversion.
//     The cache pins the registry buffers for its own lifetime.
//
// Conversion uses the exact half->float table, so cached panels carry the
// same values the scalar path reads element-wise — caching cannot perturb
// the bit-identity contract.  `exec.mha.panels_converted` counts panels
// actually converted by this construction (registry hits contribute 0).
//
// INT8 tier (precision == kInt8): panels are quantized instead of
// converted — symmetric int8 codes with one scale per (seq x d) instance
// panel.  Codes are a pure function of the half source (quantize-once
// through the registry), so INT8 attention is
// deterministic across ISAs and call schedules; it is not bit-identical
// to FP32, which is why call sites opt in via BlockwiseParams.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/kernels.hpp"
#include "stof/core/panel_cache_registry.hpp"
#include "stof/core/tensor.hpp"

namespace stof::mha {

class KvPanelCache {
 public:
  /// Make the `kv_instances` float panels of `k` and `v` available (each
  /// instance is a contiguous (seq x d) half panel).  With a `registry`,
  /// panels are fetched from (and kept in) the cross-call cache instead of
  /// converted locally.
  KvPanelCache(const TensorH& k, const TensorH& v, std::int64_t kv_instances,
               std::int64_t seq, std::int64_t head_size,
               core::PanelCacheRegistry* registry = nullptr,
               core::PanelPrecision precision =
                   core::PanelPrecision::kFloat32);

  /// Storage tier this cache was built at.  Float accessors require
  /// kFloat32; int8 accessors require kInt8.
  [[nodiscard]] core::PanelPrecision precision() const { return precision_; }

  /// K panel of instance `kv`: seq x d, row-major.
  [[nodiscard]] const float* k_panel(std::int64_t kv) const {
    STOF_EXPECTS(precision_ == core::PanelPrecision::kFloat32,
                 "cache holds int8 panels");
    return k_data_ + kv * seq_ * d_;
  }
  /// V panel of instance `kv`: seq x d, row-major.
  [[nodiscard]] const float* v_panel(std::int64_t kv) const {
    STOF_EXPECTS(precision_ == core::PanelPrecision::kFloat32,
                 "cache holds int8 panels");
    return v_data_ + kv * seq_ * d_;
  }

  /// INT8 K codes of instance `kv`, transposed: d rows of `seq` contiguous
  /// key columns.  Precondition: kInt8 precision.
  [[nodiscard]] const std::int8_t* kt_panel_i8(std::int64_t kv) const;
  /// INT8 V panel of instance `kv` (seq x d, row-major) and its scale.
  [[nodiscard]] const std::int8_t* v_panel_i8(std::int64_t kv) const;
  [[nodiscard]] float k_scale(std::int64_t kv) const;
  [[nodiscard]] float v_scale(std::int64_t kv) const;

  [[nodiscard]] std::int64_t seq() const { return seq_; }
  [[nodiscard]] std::int64_t head_size() const { return d_; }

 private:
  std::int64_t seq_ = 0;
  std::int64_t d_ = 0;
  core::PanelPrecision precision_ = core::PanelPrecision::kFloat32;
  std::vector<float> k_f32_;  ///< owning mode only
  std::vector<float> v_f32_;  ///< owning mode only
  core::PanelRef k_ref_;      ///< registry mode: pinned shared buffers
  core::PanelRef v_ref_;
  const float* k_data_ = nullptr;
  const float* v_data_ = nullptr;
  // INT8 tier state (kInt8 precision only).
  std::vector<std::int8_t> k_i8_;  ///< owning mode only
  std::vector<std::int8_t> v_i8_;
  std::vector<float> k_scales_own_;
  std::vector<float> v_scales_own_;
  core::Int8PanelRef k8_ref_;  ///< registry mode pins
  core::Int8PanelRef v8_ref_;
  const std::int8_t* k8_data_ = nullptr;
  const std::int8_t* v8_data_ = nullptr;
  const float* k_scales_ = nullptr;
  const float* v_scales_ = nullptr;
};

}  // namespace stof::mha
