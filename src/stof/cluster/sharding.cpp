#include "stof/cluster/sharding.hpp"

#include <algorithm>

#include "stof/core/check.hpp"

namespace stof::cluster {

HeadRange head_range(std::int64_t total, int devices, int device) {
  STOF_EXPECTS(total > 0 && devices >= 1);
  STOF_EXPECTS(device >= 0 && device < devices);
  STOF_EXPECTS(total >= devices, "every shard needs at least one item");
  const std::int64_t base = total / devices;
  const std::int64_t rem = total % devices;
  const std::int64_t extra = device < rem ? 1 : 0;
  const std::int64_t begin =
      device * base + std::min<std::int64_t>(device, rem);
  return HeadRange{begin, base + extra};
}

}  // namespace stof::cluster
