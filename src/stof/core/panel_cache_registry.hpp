// Persistent cross-call float-panel cache.
//
// The packed-FP32 engine reads every half operand through an exact
// half->float conversion.  Converting per call pays it on every use; this
// registry makes it a per-*write* cost: a converted panel is kept across
// calls, keyed on the identity of the half storage it was converted from,
// and is reused until that storage changes.  Its consumers convert whole
// tensors through float_panel(): ops::gemm's weight panels and the K/V
// panels of the tensor-level MHA kernels (blockwise, varlen, row-wise);
// ops::gemm's INT8 weight tier adds get_or_convert_int8().  (The serving KV
// pool keeps its own converted pages next to its half pages; see
// serve/kv_pool.hpp.)  Three properties make the reuse safe:
//
//   * Keying on storage identity, not content: every Tensor allocation (and
//     every synthetic key a holder mints via next_storage_id()) is
//     process-unique, so a key can never alias two different buffers.
//   * Version tags: the caller passes the storage's current mutation stamp;
//     a cached panel whose tag differs is discarded and reconverted —
//     validity is checked, never assumed.
//   * Shared handles: get_or_convert() hands out shared ownership of the
//     float buffer.  A stale-version discard removes the registry entry but
//     cannot free a panel a kernel still holds, and a buffer never
//     reallocates after creation, so panel pointers stay stable for as long
//     as the handle lives.
//
// An entry lives exactly as long as its storage: float_panel() and the
// INT8 weight fetch mark the Tensor they convert, and destroying a marked
// Tensor, or copy- or move-assigning over it, drops the storage's entries
// (drop_storage).  So the registry holds the panels of live tensors only,
// and needs no capacity bound of its own.
//
// The registry also caches INT8-quantized panels (get_or_convert_int8):
// symmetric per-group codes plus scales, keyed with the kPanelInt8 variant
// flag so a storage's float and int8 panels coexist.  Quantize-once: codes
// are derived from the half source exactly once per storage version, so
// INT8 execution sees identical codes however often a panel is fetched.
//
// Counters (emitted when telemetry is enabled, mirrored in local stats):
//   exec.panelcache.hits            lookups served from a cached panel
//   exec.panelcache.misses          lookups that created a new panel
//   exec.panelcache.bytes_converted destination bytes written: 2/elem for
//                                   float panels (source half reconverts),
//                                   1/elem for int8 panels — the INT8
//                                   tier's conversion traffic is half
//   exec.panelcache.invalidations   stale-version discards
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/core/tensor.hpp"

namespace stof::core {

/// Identity of one cached panel: the half storage it converts plus a
/// variant (the same storage may be cached as floats and as INT8 codes).
struct PanelKey {
  std::uint64_t storage = 0;
  std::uint64_t variant = 0;
  friend auto operator<=>(const PanelKey&, const PanelKey&) = default;
};

inline constexpr std::uint64_t kPanelRowMajor = 0;
/// Variant flag (OR'd with the layout) marking an INT8-quantized panel —
/// the same storage may be cached float and int8 at once without aliasing.
inline constexpr std::uint64_t kPanelInt8 = 2;

/// Shared handle to a cached float panel.  Keeps the buffer alive (and its
/// data pointer stable) independently of the registry entry.
struct PanelRef {
  std::shared_ptr<const std::vector<float>> buffer;
  /// Elements this call converted (0 on a pure hit).
  std::int64_t converted_elems = 0;
  [[nodiscard]] const float* data() const { return buffer->data(); }
  explicit operator bool() const { return buffer != nullptr; }
};

/// Shared handle to a cached INT8 panel: symmetric per-group codes plus
/// one scale per `scale_group` elements (see core::quant_params).
struct Int8PanelRef {
  std::shared_ptr<const std::vector<std::int8_t>> codes;
  std::shared_ptr<const std::vector<float>> scales;
  /// Elements this call quantized (0 on a pure hit).
  std::int64_t converted_elems = 0;
  [[nodiscard]] const std::int8_t* data() const { return codes->data(); }
  [[nodiscard]] const float* scale_data() const { return scales->data(); }
  explicit operator bool() const { return codes != nullptr; }
};

struct PanelCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t invalidations = 0;  ///< stale-version discards
  std::int64_t bytes_converted = 0;  ///< source half bytes (2 per element)
};

/// Generation/version-tagged float-panel cache.  All methods are
/// thread-safe; conversion callbacks run under the registry lock (they may
/// dispatch to the parallel_for pool — workers never re-enter the
/// registry).
class PanelCacheRegistry {
 public:
  /// Fills a whole panel buffer (`total_elems` floats) from its storage.
  using Converter = std::function<void(float* dst)>;

  /// Quantizes a whole INT8 panel: `total_elems` codes plus one scale per
  /// `scale_group` elements.
  using Int8Converter = std::function<void(std::int8_t* codes, float* scales)>;

  /// Fetch the panel for `key`:
  ///   * version match    -> pure hit, no conversion
  ///   * version mismatch -> discard (an invalidation), then as a miss
  ///   * no entry         -> allocate `total_elems` floats and convert
  /// `total_elems` fixes the buffer size for the key's lifetime.
  PanelRef get_or_convert(PanelKey key, std::uint64_t version,
                          std::int64_t total_elems, const Converter& convert);

  /// INT8 twin of get_or_convert with the same hit/reconvert semantics.
  /// `key.variant` must carry the kPanelInt8 flag (int8 and float panels
  /// of one storage coexist under distinct keys); `scale_group` fixes the
  /// quantization granularity for the key's lifetime and must divide
  /// `total_elems`.  Quantization is quantize-once: a hit never re-derives
  /// codes, so the same storage version always yields byte-identical codes
  /// and scales.
  Int8PanelRef get_or_convert_int8(PanelKey key, std::uint64_t version,
                                   std::int64_t total_elems,
                                   std::int64_t scale_group,
                                   const Int8Converter& convert);

  /// Drop every entry (float and INT8) of `storage`, uncounted: the
  /// storage died, so no later lookup can name it.  Handles already handed
  /// out keep their buffers.
  void drop_storage(std::uint64_t storage);

  [[nodiscard]] PanelCacheStats stats() const;
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] std::size_t entry_count() const;

 private:
  /// One cached panel: float (buffer set) or int8 (codes + scales set).
  struct Entry {
    std::shared_ptr<std::vector<float>> buffer;
    std::shared_ptr<std::vector<std::int8_t>> codes;
    std::shared_ptr<std::vector<float>> scales;
    std::int64_t scale_group = 0;  ///< int8 entries only
    std::uint64_t version = 0;
  };

  [[nodiscard]] static std::size_t entry_bytes(const Entry& e);

  /// The live entry for `key` at `version`, counting a hit, or nullptr
  /// after counting the miss (and discarding a stale entry).
  Entry* lookup_locked(PanelKey key, std::uint64_t version);
  /// Insert a freshly converted entry and count its bytes.
  void insert_locked(PanelKey key, Entry entry, std::int64_t bytes);

  mutable std::mutex mu_;
  std::map<PanelKey, Entry> entries_;
  std::size_t resident_bytes_ = 0;
  PanelCacheStats stats_;
};

/// The process-wide registry every packed execution path shares.  Never
/// destroyed, so tensors dying during static destruction can still drop
/// their entries.
PanelCacheRegistry& global_panel_cache();

/// The row-major FP32 copy of the whole tensor `t`, from the global
/// registry under `t`'s storage id and version: converted on the first
/// fetch after a write (a rank-3 tensor's (seq x d) instance panels in
/// parallel), a pure hit otherwise.  The conversion is exact, so reading
/// the panel equals per-element float(half) loads.  Marks `t`, so its
/// entry is dropped when its storage dies.
PanelRef float_panel(const TensorH& t);

}  // namespace stof::core
