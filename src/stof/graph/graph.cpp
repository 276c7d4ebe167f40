#include "stof/graph/graph.hpp"

namespace stof::graph {

void Graph::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    STOF_CHECK(n.id == static_cast<std::int64_t>(i), "ids must be sequential");
    STOF_CHECK(n.rows >= 0 && n.cols >= 0 && n.inner >= 0);
    if (n.kind == OpKind::kResidualAdd) {
      STOF_CHECK(n.skip_from >= 0 && n.skip_from < n.id,
                 "residual add needs a backward skip edge");
    }
    if (is_compute_intensive(n.kind)) {
      STOF_CHECK(n.inner > 0, "CI operators need a contraction dimension");
    }
  }
  // Every MHA operator must be part of a complete, ordered MHA run.
  const auto pattern = mha_pattern();
  const auto hits = find_pattern(pattern);
  const std::int64_t covered =
      static_cast<std::int64_t>(hits.size() * pattern.size());
  std::int64_t mha_ops = 0;
  for (const auto& n : nodes_) mha_ops += is_mha_op(n.kind) ? 1 : 0;
  STOF_CHECK(mha_ops == covered,
             "dangling MHA operator outside a complete sub-graph");
}

}  // namespace stof::graph
