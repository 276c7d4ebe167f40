// End-to-end executor: runs a model graph under a fusion scheme on the
// simulated device, one kernel launch per fused segment.
//
// Complete MHA segments are dispatched through the configured MHA method
// (STOF's unified module or a baseline policy — this is how the e2e
// comparison isolates the MHA dimension); every other segment is costed by
// its compilation template.  The MHA cost is computed once at construction
// and reused, since it is invariant under downstream-scheme changes —
// exactly the property the two-stage tuner exploits.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "stof/baselines/mha_methods.hpp"
#include "stof/fusion/scheme.hpp"
#include "stof/fusion/templates.hpp"
#include "stof/graph/graph.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/sparse/bsr_cache.hpp"

namespace stof::models {

/// A fusion scheme plus per-segment template parameters.
struct ExecutionPlan {
  fusion::FusionScheme scheme;
  /// One entry per segment of `scheme`; empty means defaults everywhere.
  std::vector<fusion::TemplateParams> segment_params;
  /// Eager (framework-dispatched) execution: every segment pays the
  /// device's dispatch overhead.  Set by the PyTorch-Native plan.
  bool eager = false;
};

/// Result of simulating one plan.
struct ExecResult {
  bool supported = true;
  std::string unsupported_reason;
  double time_us = 0;
  std::size_t launches = 0;
};

class Executor {
 public:
  /// `attn_dims` must describe the MHA instances of `g` (one shared shape;
  /// all layers attend identically, as in the paper's setting).
  Executor(graph::Graph g, mha::MhaDims attn_dims, masks::MaskSpec mask_spec,
           gpusim::DeviceSpec device,
           baselines::Method mha_method = baselines::Method::kStof);

  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const gpusim::DeviceSpec& device() const { return device_; }
  [[nodiscard]] const mha::MhaDims& attn_dims() const { return attn_dims_; }
  [[nodiscard]] baselines::Method mha_method() const { return mha_method_; }
  [[nodiscard]] sparse::BsrCache& bsr_cache() { return *cache_; }

  /// Host wall time spent analyzing the mask and planning the MHA kernel
  /// at construction (the paper's "analysis model" overhead, Fig. 14).
  [[nodiscard]] double setup_wall_us() const { return setup_wall_us_; }
  [[nodiscard]] bool mha_supported() const { return mha_supported_; }

  /// Simulate the whole graph under `plan`; optionally record kernels.
  ExecResult simulate(const ExecutionPlan& plan,
                      gpusim::Stream* stream = nullptr) const;

 private:
  graph::Graph graph_;
  mha::MhaDims attn_dims_;
  masks::PatternKind pattern_;
  gpusim::DeviceSpec device_;
  baselines::Method mha_method_;
  std::unique_ptr<sparse::BsrCache> cache_;
  std::vector<gpusim::KernelRecord> mha_records_;
  double setup_wall_us_ = 0;
  bool mha_supported_ = true;
  std::string mha_unsupported_reason_;
};

}  // namespace stof::models
