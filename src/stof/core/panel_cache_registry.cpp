#include "stof/core/panel_cache_registry.hpp"

#include "stof/core/packed.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {

PanelRef PanelCacheRegistry::get_or_convert(std::uint64_t storage,
                                            std::uint64_t version,
                                            std::int64_t total_elems,
                                            const Converter& convert) {
  STOF_EXPECTS(storage != 0, "panel key needs a real storage id");
  STOF_EXPECTS(total_elems > 0, "panel must hold elements");
  std::lock_guard<std::mutex> lock(mu_);
  PanelRef ref;
  auto it = entries_.find(storage);
  if (it != entries_.end()) {
    if (it->second.version == version) {
      STOF_CHECK(static_cast<std::int64_t>(it->second.buffer->size()) ==
                     total_elems,
                 "panel size changed under a live storage key");
      stats_.hits += 1;
      telemetry::count("exec.panelcache.hits");
      ref.buffer = it->second.buffer;
      return ref;
    }
    // Stale generation: the storage was mutated since this panel was
    // converted.  Discard and fall through to a fresh miss.
    stats_.invalidations += 1;
    telemetry::count("exec.panelcache.invalidations");
    resident_bytes_ -= it->second.buffer->size() * sizeof(float);
    entries_.erase(it);
  }
  stats_.misses += 1;
  telemetry::count("exec.panelcache.misses");
  Entry e;
  e.buffer = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(total_elems));
  e.version = version;
  convert(e.buffer->data());
  ref.buffer = e.buffer;
  ref.converted_elems = total_elems;
  const std::int64_t bytes = total_elems * 2;  // source halfs
  stats_.bytes_converted += bytes;
  telemetry::count("exec.panelcache.bytes_converted", bytes);
  resident_bytes_ += static_cast<std::size_t>(total_elems) * sizeof(float);
  entries_.emplace(storage, std::move(e));
  return ref;
}

void PanelCacheRegistry::drop_storage(std::uint64_t storage) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(storage);
  if (it == entries_.end()) return;
  resident_bytes_ -= it->second.buffer->size() * sizeof(float);
  entries_.erase(it);
}

PanelCacheStats PanelCacheRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PanelCacheRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

std::size_t PanelCacheRegistry::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

PanelCacheRegistry& global_panel_cache() {
  // Immortal: a marked tensor with static storage duration may die after
  // every other static object, and its destructor still reaches here.
  static PanelCacheRegistry* const registry = new PanelCacheRegistry();
  return *registry;
}

void drop_storage_panels(std::uint64_t storage) {
  global_panel_cache().drop_storage(storage);
}

PanelRef float_panel(const TensorH& t) {
  t.mark_panels();
  const std::int64_t slices = t.shape().rank() == 3 ? t.shape()[0] : 1;
  const auto slice = static_cast<std::size_t>(t.numel() / slices);
  return global_panel_cache().get_or_convert(
      t.storage_id(), t.version(), t.numel(),
      [&t, slices, slice](float* dst) {
        parallel_for(0, slices, [&](std::int64_t s) {
          const auto lo = static_cast<std::size_t>(s) * slice;
          packed::half_to_float(t.data().subspan(lo, slice), {dst + lo, slice});
        });
      });
}

}  // namespace stof::core
