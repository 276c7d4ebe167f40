#include "stof/core/panel_cache_registry.hpp"

#include "stof/core/packed.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {

std::size_t PanelCacheRegistry::entry_bytes(const Entry& e) {
  std::size_t bytes = 0;
  if (e.buffer) bytes += e.buffer->size() * sizeof(float);
  if (e.codes) bytes += e.codes->size();
  if (e.scales) bytes += e.scales->size() * sizeof(float);
  return bytes;
}

PanelCacheRegistry::Entry* PanelCacheRegistry::lookup_locked(
    PanelKey key, std::uint64_t version) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.version == version) {
      stats_.hits += 1;
      telemetry::count("exec.panelcache.hits");
      return &it->second;
    }
    // Stale generation: the storage was mutated since this panel was
    // converted.  Discard and fall through to a fresh miss.
    stats_.invalidations += 1;
    telemetry::count("exec.panelcache.invalidations");
    resident_bytes_ -= entry_bytes(it->second);
    entries_.erase(it);
  }
  stats_.misses += 1;
  telemetry::count("exec.panelcache.misses");
  return nullptr;
}

void PanelCacheRegistry::insert_locked(PanelKey key, Entry entry,
                                       std::int64_t bytes) {
  stats_.bytes_converted += bytes;
  telemetry::count("exec.panelcache.bytes_converted", bytes);
  resident_bytes_ += entry_bytes(entry);
  entries_.emplace(key, std::move(entry));
}

PanelRef PanelCacheRegistry::get_or_convert(PanelKey key,
                                            std::uint64_t version,
                                            std::int64_t total_elems,
                                            const Converter& convert) {
  STOF_EXPECTS(key.storage != 0, "panel key needs a real storage id");
  STOF_EXPECTS(total_elems > 0, "panel must hold elements");
  std::lock_guard<std::mutex> lock(mu_);
  PanelRef ref;
  if (const Entry* e = lookup_locked(key, version)) {
    STOF_CHECK(e->buffer != nullptr &&
                   static_cast<std::int64_t>(e->buffer->size()) == total_elems,
               "panel size changed under a live storage key");
    ref.buffer = e->buffer;
    return ref;
  }
  Entry e;
  e.buffer = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(total_elems));
  e.version = version;
  convert(e.buffer->data());
  ref.buffer = e.buffer;
  ref.converted_elems = total_elems;
  insert_locked(key, std::move(e), total_elems * 2);  // source halfs
  return ref;
}

Int8PanelRef PanelCacheRegistry::get_or_convert_int8(
    PanelKey key, std::uint64_t version, std::int64_t total_elems,
    std::int64_t scale_group, const Int8Converter& convert) {
  STOF_EXPECTS(key.storage != 0, "panel key needs a real storage id");
  STOF_EXPECTS((key.variant & kPanelInt8) != 0,
               "int8 panel keys must carry the kPanelInt8 variant flag");
  STOF_EXPECTS(total_elems > 0 && scale_group > 0 &&
                   total_elems % scale_group == 0,
               "element count must be a scale_group multiple");
  std::lock_guard<std::mutex> lock(mu_);
  Int8PanelRef ref;
  if (const Entry* e = lookup_locked(key, version)) {
    STOF_CHECK(e->codes != nullptr &&
                   static_cast<std::int64_t>(e->codes->size()) == total_elems &&
                   e->scale_group == scale_group,
               "int8 panel geometry changed under a live storage key");
    ref.codes = e->codes;
    ref.scales = e->scales;
    return ref;
  }
  Entry e;
  e.codes = std::make_shared<std::vector<std::int8_t>>(
      static_cast<std::size_t>(total_elems));
  e.scales = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(total_elems / scale_group));
  e.scale_group = scale_group;
  e.version = version;
  convert(e.codes->data(), e.scales->data());
  ref.codes = e.codes;
  ref.scales = e.scales;
  ref.converted_elems = total_elems;
  // Destination int8 codes, 1 byte per element.
  insert_locked(key, std::move(e), total_elems);
  return ref;
}

void PanelCacheRegistry::drop_storage(std::uint64_t storage) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.lower_bound(PanelKey{storage, 0});
  while (it != entries_.end() && it->first.storage == storage) {
    resident_bytes_ -= entry_bytes(it->second);
    it = entries_.erase(it);
  }
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
      {t.storage_id(), kPanelRowMajor}, t.version(), t.numel(),
      [&t, slices, slice](float* dst) {
        parallel_for(0, slices, [&](std::int64_t s) {
          const auto lo = static_cast<std::size_t>(s) * slice;
          packed::half_to_float(t.data().subspan(lo, slice), {dst + lo, slice});
        });
      });
}

}  // namespace stof::core
