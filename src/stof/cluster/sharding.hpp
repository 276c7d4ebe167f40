// Tensor-parallel sharding of attention heads.
//
// Each shard owns a contiguous head range (head_range below) and its
// matching KV-pool slice, so paged decode and prefix sharing shard for
// free.  The layer-boundary gather concatenates
// head outputs: no arithmetic crosses shards, so shard bytes equal the
// corresponding head slice of a single-device run.
//
// The rest of a layer is charged, not run, per shard: a shard builds its
// serve::ModelRuntime at shard width (its heads x head_size), so every
// layer GEMM, FFN included, is costed at that width, and the cluster
// charges the layer-boundary all-reduces through the collective model.
// The numeric layer head runs once, at full width, in the cluster.
#pragma once

#include <cstdint>

namespace stof::cluster {

/// Contiguous balanced range [begin, begin + count) owned by shard
/// `device` of `devices` over `total` items; the first total % devices
/// shards get one extra item and the ranges tile [0, total) exactly.
struct HeadRange {
  std::int64_t begin = 0;
  std::int64_t count = 0;
  [[nodiscard]] std::int64_t end() const { return begin + count; }
};

HeadRange head_range(std::int64_t total, int devices, int device);

}  // namespace stof::cluster
