#include "stof/mha/panel_cache.hpp"

#include "stof/core/packed.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::mha {
namespace {

/// Row-major conversion of destination elements [lo, hi); source and
/// destination offsets coincide, so partial ranges are exact.
void convert_rows(const TensorH& src, std::int64_t lo, std::int64_t hi,
                  float* dst) {
  packed::half_to_float(
      src.data().subspan(static_cast<std::size_t>(lo),
                         static_cast<std::size_t>(hi - lo)),
      {dst + lo, static_cast<std::size_t>(hi - lo)});
}

/// Convert-and-transpose of every instance panel for the INT8 tier's K
/// codes: (seq x d) half in, kv_instances contiguous (d x seq) float
/// panels out.  Tiled so both the strided reads and the contiguous writes
/// stay cache-resident.
void convert_transposed(const TensorH& k, std::int64_t kv_instances,
                        std::int64_t seq, std::int64_t d, float* out) {
  const float* table = packed::h2f_table();
  const std::int64_t panel = seq * d;
  parallel_for(0, kv_instances, [&](std::int64_t kv) {
    const half* src = k.data().data() + kv * panel;
    float* dst = out + kv * panel;
    constexpr std::int64_t kT = 32;
    for (std::int64_t j0 = 0; j0 < seq; j0 += kT) {
      const std::int64_t j1 = std::min(seq, j0 + kT);
      for (std::int64_t e0 = 0; e0 < d; e0 += kT) {
        const std::int64_t e1 = std::min(d, e0 + kT);
        for (std::int64_t j = j0; j < j1; ++j) {
          for (std::int64_t e = e0; e < e1; ++e) {
            dst[e * seq + j] = table[src[j * d + e].bits()];
          }
        }
      }
    }
  });
}

/// Parallel row-major conversion of all instance panels.
void convert_row_major(const TensorH& t, std::int64_t kv_instances,
                       std::int64_t panel, float* out) {
  parallel_for(0, kv_instances, [&](std::int64_t kv) {
    convert_rows(t, kv * panel, (kv + 1) * panel, out);
  });
}

}  // namespace

KvPanelCache::KvPanelCache(const TensorH& k, const TensorH& v,
                           std::int64_t kv_instances, std::int64_t seq,
                           std::int64_t head_size,
                           core::PanelCacheRegistry* registry,
                           core::PanelPrecision precision)
    : seq_(seq), d_(head_size), precision_(precision) {
  const std::int64_t panel = seq_ * d_;
  const std::int64_t total = kv_instances * panel;
  STOF_EXPECTS(static_cast<std::int64_t>(k.data().size()) == total &&
                   k.data().size() == v.data().size(),
               "K/V storage must be kv_instances contiguous (seq x d) panels");

  std::int64_t converted_panels = 0;
  if (precision_ == core::PanelPrecision::kInt8) {
    // INT8 tier: one symmetric scale per instance panel.  The transposed K
    // codes quantize a transposed float staging buffer so the scale still
    // covers exactly one instance's values.
    const auto k_quant = [&](std::int8_t* codes, float* scales) {
      std::vector<float> staged(static_cast<std::size_t>(total));
      convert_transposed(k, kv_instances, seq_, d_, staged.data());
      packed::quantize_floats(staged.data(), total, panel, codes, scales);
    };
    const auto v_quant = [&](std::int8_t* codes, float* scales) {
      packed::quantize_halfs(v.data(), panel, codes, scales);
    };
    if (registry != nullptr) {
      // A transposed panel's layout depends on the (seq, d) factorisation,
      // so the K variant encodes it.
      const std::uint64_t k_layout = core::kPanelTransposed |
                                     (static_cast<std::uint64_t>(seq_) << 8) |
                                     (static_cast<std::uint64_t>(d_) << 36);
      k8_ref_ = registry->get_or_convert_int8(
          {k.storage_id(), k_layout | core::kPanelInt8}, k.version(), total,
          panel, k_quant);
      v8_ref_ = registry->get_or_convert_int8(
          {v.storage_id(), core::kPanelRowMajor | core::kPanelInt8},
          v.version(), total, panel, v_quant);
      k8_data_ = k8_ref_.data();
      v8_data_ = v8_ref_.data();
      k_scales_ = k8_ref_.scale_data();
      v_scales_ = v8_ref_.scale_data();
      if (k8_ref_.converted_elems > 0) converted_panels += kv_instances;
      if (v8_ref_.converted_elems > 0) converted_panels += kv_instances;
    } else {
      k_i8_.resize(static_cast<std::size_t>(total));
      v_i8_.resize(static_cast<std::size_t>(total));
      k_scales_own_.resize(static_cast<std::size_t>(kv_instances));
      v_scales_own_.resize(static_cast<std::size_t>(kv_instances));
      k_quant(k_i8_.data(), k_scales_own_.data());
      v_quant(v_i8_.data(), v_scales_own_.data());
      k8_data_ = k_i8_.data();
      v8_data_ = v_i8_.data();
      k_scales_ = k_scales_own_.data();
      v_scales_ = v_scales_own_.data();
      converted_panels = 2 * kv_instances;
    }
    if (converted_panels > 0) {
      telemetry::count("exec.mha.panels_converted", converted_panels);
    }
    return;
  }
  if (registry != nullptr) {
    // Cross-call mode: panels are keyed on each tensor's storage identity
    // and tagged with its mutation stamp, so an unmodified tensor converts
    // once across any number of kernel calls while any write forces a
    // fresh conversion of the whole tensor.
    const auto convert = [&](const TensorH& src) {
      return [&, t = &src](float* dst) {
        convert_row_major(*t, kv_instances, panel, dst);
      };
    };
    k_ref_ = registry->get_or_convert({k.storage_id(), core::kPanelRowMajor},
                                      k.version(), total, convert(k));
    v_ref_ = registry->get_or_convert({v.storage_id(), core::kPanelRowMajor},
                                      v.version(), total, convert(v));
    k_data_ = k_ref_.data();
    v_data_ = v_ref_.data();
    if (k_ref_.converted_elems > 0) converted_panels += kv_instances;
    if (v_ref_.converted_elems > 0) converted_panels += kv_instances;
  } else {
    // Owning mode: per-call conversion (every construction pays in full).
    k_f32_.resize(static_cast<std::size_t>(total));
    v_f32_.resize(static_cast<std::size_t>(total));
    convert_row_major(k, kv_instances, panel, k_f32_.data());
    convert_row_major(v, kv_instances, panel, v_f32_.data());
    k_data_ = k_f32_.data();
    v_data_ = v_f32_.data();
    converted_panels = 2 * kv_instances;
  }
  // One K and one V panel per instance when conversion actually ran;
  // registry hits reuse earlier conversions and count nothing.
  if (converted_panels > 0) {
    telemetry::count("exec.mha.panels_converted", converted_panels);
  }
}

const std::int8_t* KvPanelCache::kt_panel_i8(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return k8_data_ + kv * seq_ * d_;
}

const std::int8_t* KvPanelCache::v_panel_i8(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return v8_data_ + kv * seq_ * d_;
}

float KvPanelCache::k_scale(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return k_scales_[kv];
}

float KvPanelCache::v_scale(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return v_scales_[kv];
}

}  // namespace stof::mha
