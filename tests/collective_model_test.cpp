// Analytic collective model tests: closed-form α–β checks, the ring/tree
// crossover, monotonicity, and determinism of charged timeline costs.
#include <gtest/gtest.h>

#include "stof/cluster/collectives.hpp"

namespace stof::cluster {
namespace {

constexpr double kTol = 1e-9;

TEST(CollectiveModel, RingAllReduceWireBytesClosedForm) {
  const LinkSpec link = nvlink_like();
  for (const int n : {2, 3, 4, 8, 16}) {
    for (const double bytes : {1024.0, 65536.0, 4.0e6}) {
      const auto c = collective_cost(CollectiveOp::kAllReduce, link, n, bytes,
                                     CollectiveAlgo::kRing);
      // Reduce-scatter + all-gather: each device puts 2(N-1)/N · B on its
      // link — the bandwidth-optimal schedule's defining property.
      EXPECT_NEAR(c.wire_bytes_per_device, 2.0 * (n - 1) / n * bytes, kTol)
          << "n=" << n << " bytes=" << bytes;
      // And the closed-form time: 2(N−1)·α + wire·B/β.
      const double beta = 1.0 / (link.bandwidth_gbps * 1e3);
      EXPECT_NEAR(c.time_us,
                  2.0 * (n - 1) * link.latency_us +
                      c.wire_bytes_per_device * beta,
                  kTol);
    }
  }
}

TEST(CollectiveModel, SinglePhaseCollectivesAreHalfAnAllReduce) {
  const LinkSpec link = nvlink_like();
  const double bytes = 1.0e6;
  for (const int n : {2, 4, 8}) {
    const auto ar = collective_cost(CollectiveOp::kAllReduce, link, n, bytes,
                                    CollectiveAlgo::kRing);
    for (const auto op :
         {CollectiveOp::kAllGather, CollectiveOp::kReduceScatter}) {
      const auto c = collective_cost(op, link, n, bytes, CollectiveAlgo::kRing);
      EXPECT_NEAR(c.wire_bytes_per_device, (n - 1.0) / n * bytes, kTol);
      EXPECT_NEAR(c.time_us, ar.time_us / 2.0, kTol);
    }
  }
}

TEST(CollectiveModel, AutoPicksTreeForSmallAndRingForLargeMessages) {
  const LinkSpec link = nvlink_like();
  const int n = 8;
  // Tiny message: latency dominates; the tree's 2·log2(8) = 6 α terms beat
  // the ring's 2·7 = 14.
  const auto small = collective_cost(CollectiveOp::kAllReduce, link, n, 64.0);
  EXPECT_EQ(small.algo, CollectiveAlgo::kTree);
  // Huge message: bandwidth dominates; the ring's 2(N−1)/N·B beats the
  // tree's 2·log2(N)·B on the wire.
  const auto large =
      collective_cost(CollectiveOp::kAllReduce, link, n, 64.0e6);
  EXPECT_EQ(large.algo, CollectiveAlgo::kRing);
  // kAuto is never slower than either fixed schedule.
  for (const double bytes : {64.0, 4096.0, 1.0e6, 64.0e6}) {
    const auto a = collective_cost(CollectiveOp::kAllReduce, link, n, bytes);
    const auto r = collective_cost(CollectiveOp::kAllReduce, link, n, bytes,
                                   CollectiveAlgo::kRing);
    const auto t = collective_cost(CollectiveOp::kAllReduce, link, n, bytes,
                                   CollectiveAlgo::kTree);
    EXPECT_LE(a.time_us, r.time_us + kTol);
    EXPECT_LE(a.time_us, t.time_us + kTol);
  }
}

TEST(CollectiveModel, TimeMonotonicInDevicesAndBytes) {
  // A PCIe-gen4-class fabric: high α, thin β.
  const LinkSpec link{"pcie", 1.5, 32.0};
  for (const auto op : {CollectiveOp::kAllReduce, CollectiveOp::kAllGather,
                        CollectiveOp::kReduceScatter}) {
    double prev = -1;
    for (const int n : {1, 2, 3, 4, 6, 8, 12, 16}) {
      const auto c = collective_cost(op, link, n, 32768.0);
      EXPECT_GE(c.time_us, prev - kTol) << "op=" << to_string(op) << " n=" << n;
      prev = c.time_us;
    }
    prev = -1;
    for (const double bytes : {0.0, 256.0, 4096.0, 65536.0, 1.0e6}) {
      const auto c = collective_cost(op, link, 8, bytes);
      EXPECT_GE(c.time_us, prev - kTol);
      prev = c.time_us;
    }
  }
}

TEST(CollectiveModel, SingleDeviceIsFree) {
  for (const auto op : {CollectiveOp::kAllReduce, CollectiveOp::kAllGather,
                        CollectiveOp::kReduceScatter}) {
    const auto c = collective_cost(op, nvlink_like(), 1, 1.0e6);
    EXPECT_EQ(c.time_us, 0.0);
    EXPECT_EQ(c.wire_bytes_per_device, 0.0);
  }
}

TEST(CollectiveModel, ChargedTimelineCostsAreDeterministic) {
  const LinkSpec link = nvlink_like();
  const auto run = [&](gpusim::Stream& stream) {
    for (const double bytes : {128.0, 65536.0, 2.0e6}) {
      for (const int n : {2, 4, 8}) {
        charge_collective(stream, collective_cost(CollectiveOp::kAllReduce,
                                                  link, n, bytes));
      }
    }
  };
  gpusim::Stream a(gpusim::a100()), b(gpusim::a100());
  run(a);
  run(b);
  EXPECT_EQ(a.total_us(), b.total_us());
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].name, "cluster.allreduce");
    EXPECT_EQ(a.records()[i].time_us, b.records()[i].time_us);
    EXPECT_EQ(a.records()[i].cost.gmem_read_bytes,
              b.records()[i].cost.gmem_read_bytes);
  }
}

TEST(CollectiveModel, ChargeIsNoOpOnOneDevice) {
  gpusim::Stream s(gpusim::a100());
  const double us = charge_collective(
      s, collective_cost(CollectiveOp::kAllReduce, nvlink_like(), 1, 1.0e6));
  EXPECT_EQ(us, 0.0);
  EXPECT_TRUE(s.records().empty());
}

}  // namespace
}  // namespace stof::cluster
