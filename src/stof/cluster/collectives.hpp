// Analytic collective cost model for the simulated multi-device cluster.
//
// Collectives are modeled with the classical latency–bandwidth (α–β)
// machinery: a LinkSpec carries the per-hop message latency α and the
// per-link bandwidth β of the interconnect, and each collective is priced
// for both a ring and a binomial-tree schedule:
//
//   ring all-reduce      t = 2(N−1)·α + 2(N−1)/N · B/β     (reduce-scatter
//                        + all-gather; each device puts 2(N−1)/N·B on its
//                        link — the bandwidth-optimal schedule)
//   tree all-reduce      t = 2·ceil(log2 N)·(α + B/β)      (reduce up a
//                        binomial tree, broadcast back down)
//   ring all-gather      t = (N−1)·α + (N−1)/N · B/β        (B = gathered
//                        result size)
//   ring reduce-scatter  t = (N−1)·α + (N−1)/N · B/β
//   tree all-gather /    t = ceil(log2 N)·(α + B/β)
//   reduce-scatter
//
// kAuto picks whichever schedule is faster for the message size: small
// messages are latency-dominated and prefer the O(log N) tree, large ones
// are bandwidth-dominated and prefer the ring — the same crossover real
// collective libraries implement.  All quantities are pure functions of
// (op, link, devices, bytes), so charged timeline costs are deterministic.
//
// charge_collective() pushes the resolved cost onto a device's
// gpusim::Stream as a fixed-time event and counts the cluster.collective.*
// telemetry, which is how per-device timelines see interconnect time.
#pragma once

#include <cstdint>
#include <string>

#include "stof/core/check.hpp"
#include "stof/gpusim/timeline.hpp"

namespace stof::cluster {

/// Interconnect description consumed by the α–β model.  A link is one
/// device's attachment to the fabric (ring neighbor or tree edge).
struct LinkSpec {
  std::string name = "nvlink";
  double latency_us = 0.3;       ///< α: per-hop, per-message latency
  double bandwidth_gbps = 600;   ///< β: per-link bandwidth (GB/s)

  void validate() const {
    STOF_EXPECTS(latency_us >= 0, "link latency must be non-negative");
    STOF_EXPECTS(bandwidth_gbps > 0, "link bandwidth must be positive");
  }
};

/// NVLink/NVSwitch-class intra-node fabric.
LinkSpec nvlink_like();

enum class CollectiveOp : std::uint8_t {
  kAllReduce,
  kAllGather,
  kReduceScatter
};

enum class CollectiveAlgo : std::uint8_t { kAuto, kRing, kTree };

const char* to_string(CollectiveOp op);
const char* to_string(CollectiveAlgo algo);

/// Resolved cost of one collective over `devices` ranks.
struct CollectiveCost {
  CollectiveOp op = CollectiveOp::kAllReduce;
  CollectiveAlgo algo = CollectiveAlgo::kRing;  ///< resolved, never kAuto
  int devices = 1;
  double payload_bytes = 0;  ///< full message size B (gathered/reduced)
  /// Bytes each device moves across its own link on the schedule's
  /// critical path (the quantity the closed-form tests check).
  double wire_bytes_per_device = 0;
  double time_us = 0;
};

/// Price `op` over `devices` ranks moving `payload_bytes`.  With kAuto the
/// faster of ring and tree is chosen; N == 1 is free (no communication).
CollectiveCost collective_cost(CollectiveOp op, const LinkSpec& link,
                               int devices, double payload_bytes,
                               CollectiveAlgo algo = CollectiveAlgo::kAuto);

/// Charge `cost` onto one device's timeline as a fixed-duration event
/// named "cluster.<op>" and count cluster.collective.* telemetry.
/// Returns the charged time in microseconds.
double charge_collective(gpusim::Stream& stream, const CollectiveCost& cost);

}  // namespace stof::cluster
