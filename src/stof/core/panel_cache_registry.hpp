// Persistent cross-call float-panel cache.
//
// The packed-FP32 engine reads every half operand through an exact
// half->float conversion.  Converting per call pays it on every use; this
// registry makes it a per-*write* cost: a converted panel is kept across
// calls, keyed on the identity of the half storage it was converted from,
// and is reused until that storage changes.  Its consumers convert whole
// tensors through float_panel(): ops::gemm's weight panels and the K/V
// panels of the tensor-level MHA kernels (blockwise, varlen, row-wise).
// (The serving KV pool keeps its own converted pages next to its half pages; see
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
// An entry lives exactly as long as its storage: float_panel() marks the
// Tensor it converts, and destroying a marked Tensor, or copy- or
// move-assigning over it, drops the storage's entry (drop_storage).  So the
// registry holds the panels of live tensors only, and needs no capacity
// bound of its own.
//
// Counters (emitted when telemetry is enabled, mirrored in local stats):
//   exec.panelcache.hits            lookups served from a cached panel
//   exec.panelcache.misses          lookups that created a new panel
//   exec.panelcache.bytes_converted source half bytes converted (2/elem)
//   exec.panelcache.invalidations   stale-version discards
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/core/tensor.hpp"

namespace stof::core {

/// Shared handle to a cached float panel.  Keeps the buffer alive (and its
/// data pointer stable) independently of the registry entry.
struct PanelRef {
  std::shared_ptr<const std::vector<float>> buffer;
  /// Elements this call converted (0 on a pure hit).
  std::int64_t converted_elems = 0;
  [[nodiscard]] const float* data() const { return buffer->data(); }
  explicit operator bool() const { return buffer != nullptr; }
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

  /// Fetch the row-major FP32 panel of half storage `storage` (a storage
  /// id, see next_storage_id()):
  ///   * version match    -> pure hit, no conversion
  ///   * version mismatch -> discard (an invalidation), then as a miss
  ///   * no entry         -> allocate `total_elems` floats and convert
  /// `total_elems` fixes the buffer size for the storage's lifetime.
  PanelRef get_or_convert(std::uint64_t storage, std::uint64_t version,
                          std::int64_t total_elems, const Converter& convert);

  /// Drop the entry of `storage`, uncounted: the storage died, so no later
  /// lookup can name it.  Handles already handed out keep their buffers.
  void drop_storage(std::uint64_t storage);

  [[nodiscard]] PanelCacheStats stats() const;
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] std::size_t entry_count() const;

 private:
  struct Entry {
    std::shared_ptr<std::vector<float>> buffer;
    std::uint64_t version = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
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
