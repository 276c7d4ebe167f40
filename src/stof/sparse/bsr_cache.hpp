// Build-on-demand cache of BSR representations of one mask.
//
// Benches and baselines evaluate many methods against the same mask, each
// at its own block granularity; building a 4096^2 BSR is the dominant cost
// of planning, so it is shared through this cache.  The serving engine
// keeps one per mask kind: its BSR is the base every prefill launch
// derives its per-length BSRs from and decode reads its column lists from.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "stof/masks/mask.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::sparse {

class BsrCache {
 public:
  explicit BsrCache(masks::Mask mask) : mask_(std::move(mask)) {}

  [[nodiscard]] const masks::Mask& mask() const { return mask_; }

  /// BSR of the mask at (block_m x block_n); built on first request.
  const BsrMask& at(int block_m, int block_n) {
    const auto key = std::make_pair(block_m, block_n);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      telemetry::count("sim.sparse.bsr_cache_misses");
      it = cache_
               .emplace(key, std::make_unique<BsrMask>(
                                 BsrMask::build(mask_, block_m, block_n)))
               .first;
    } else {
      telemetry::count("sim.sparse.bsr_cache_hits");
    }
    return *it->second;
  }

 private:
  masks::Mask mask_;
  std::map<std::pair<int, int>, std::unique_ptr<BsrMask>> cache_;
};

}  // namespace stof::sparse
