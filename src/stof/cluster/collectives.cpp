#include "stof/cluster/collectives.hpp"

#include <algorithm>
#include <cmath>

#include "stof/telemetry/telemetry.hpp"

namespace stof::cluster {

LinkSpec nvlink_like() { return LinkSpec{"nvlink", 0.3, 600.0}; }

const char* to_string(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kAllReduce:
      return "allreduce";
    case CollectiveOp::kAllGather:
      return "allgather";
    case CollectiveOp::kReduceScatter:
      return "reducescatter";
  }
  return "unknown";
}

const char* to_string(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kAuto:
      return "auto";
    case CollectiveAlgo::kRing:
      return "ring";
    case CollectiveAlgo::kTree:
      return "tree";
  }
  return "unknown";
}

namespace {

[[nodiscard]] double beta_us_per_byte(const LinkSpec& link) {
  return 1.0 / (link.bandwidth_gbps * 1e3);  // GB/s -> bytes/us
}

[[nodiscard]] int ceil_log2(int n) {
  int steps = 0;
  for (int span = 1; span < n; span *= 2) ++steps;
  return steps;
}

/// (steps, per-device wire bytes) of the ring schedule for `op`.
struct Schedule {
  double steps = 0;       ///< α terms on the critical path
  double wire_bytes = 0;  ///< bytes per device link on the critical path
};

[[nodiscard]] Schedule ring_schedule(CollectiveOp op, int n, double bytes) {
  const double phases = op == CollectiveOp::kAllReduce ? 2.0 : 1.0;
  return Schedule{phases * (n - 1),
                  phases * (static_cast<double>(n - 1) / n) * bytes};
}

[[nodiscard]] Schedule tree_schedule(CollectiveOp op, int n, double bytes) {
  const double phases = op == CollectiveOp::kAllReduce ? 2.0 : 1.0;
  const double hops = static_cast<double>(ceil_log2(n));
  return Schedule{phases * hops, phases * hops * bytes};
}

}  // namespace

CollectiveCost collective_cost(CollectiveOp op, const LinkSpec& link,
                               int devices, double payload_bytes,
                               CollectiveAlgo algo) {
  link.validate();
  STOF_EXPECTS(devices >= 1, "collective needs at least one device");
  STOF_EXPECTS(payload_bytes >= 0);

  CollectiveCost cost;
  cost.op = op;
  cost.devices = devices;
  cost.payload_bytes = payload_bytes;
  if (devices == 1) {
    cost.algo = algo == CollectiveAlgo::kAuto ? CollectiveAlgo::kRing : algo;
    return cost;  // single rank: no wire traffic, no time
  }

  const double beta = beta_us_per_byte(link);
  const auto price = [&](const Schedule& s) {
    return s.steps * link.latency_us + s.wire_bytes * beta;
  };
  const Schedule ring = ring_schedule(op, devices, payload_bytes);
  const Schedule tree = tree_schedule(op, devices, payload_bytes);
  const double ring_us = price(ring);
  const double tree_us = price(tree);

  CollectiveAlgo pick = algo;
  if (pick == CollectiveAlgo::kAuto) {
    // Latency-dominated small messages take the O(log N) tree; bandwidth-
    // dominated large ones take the (N-1)/N-optimal ring.  Ties go to the
    // ring so the choice is deterministic.
    pick = tree_us < ring_us ? CollectiveAlgo::kTree : CollectiveAlgo::kRing;
  }
  const Schedule& sched = pick == CollectiveAlgo::kRing ? ring : tree;
  cost.algo = pick;
  cost.wire_bytes_per_device = sched.wire_bytes;
  cost.time_us = price(sched);
  return cost;
}

double charge_collective(gpusim::Stream& stream, const CollectiveCost& cost) {
  if (cost.devices <= 1) return 0;
  const std::string name = std::string("cluster.") + to_string(cost.op);
  const double us =
      stream.launch_timed(name, cost.time_us, cost.wire_bytes_per_device);
  if (telemetry::enabled()) {
    telemetry::count("cluster.collective.calls");
    telemetry::count("cluster.collective.us", std::llround(us));
    telemetry::count("cluster.collective.wire_bytes",
                     std::llround(cost.wire_bytes_per_device));
    telemetry::count(std::string("cluster.collective.") +
                     to_string(cost.algo) + "_calls");
  }
  return us;
}

}  // namespace stof::cluster
