#include "stof/models/executor.hpp"

#include <chrono>

#include "stof/telemetry/telemetry.hpp"

namespace stof::models {

Executor::Executor(graph::Graph g, mha::MhaDims attn_dims,
                   masks::MaskSpec mask_spec, gpusim::DeviceSpec device,
                   baselines::Method mha_method)
    : graph_(std::move(g)),
      attn_dims_(attn_dims),
      pattern_(mask_spec.kind),
      device_(std::move(device)),
      mha_method_(mha_method) {
  const auto setup_start = std::chrono::steady_clock::now();
  attn_dims_.validate();
  STOF_EXPECTS(mask_spec.seq_len == attn_dims_.seq_len,
               "mask spec must match attention seq_len");
  graph_.validate();
  cache_ = std::make_unique<sparse::BsrCache>(mask_spec.build());

  // Precompute the fused-MHA kernel records once; they are invariant under
  // downstream fusion-scheme changes and are replayed per MHA segment.
  gpusim::Stream scratch(device_);
  const auto r = baselines::simulate_mha(mha_method_, attn_dims_, pattern_,
                                         *cache_, scratch);
  mha_supported_ = r.supported;
  mha_unsupported_reason_ = r.unsupported_reason;
  mha_records_ = scratch.records();
  setup_wall_us_ = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - setup_start)
                       .count();
  telemetry::count("sim.exec.executors_built");
  telemetry::duration_us("wall.exec.setup_us", setup_wall_us_);
}

ExecResult Executor::simulate(const ExecutionPlan& plan,
                              gpusim::Stream* stream) const {
  const auto segments = plan.scheme.segments();
  STOF_EXPECTS(plan.scheme.n_ops() == static_cast<std::int64_t>(graph_.size()),
               "plan must cover the graph");
  STOF_EXPECTS(plan.segment_params.empty() ||
                   plan.segment_params.size() == segments.size(),
               "segment_params must match segment count");

  telemetry::count("sim.exec.simulations");
  gpusim::Stream local(device_);
  gpusim::Stream& s = stream != nullptr ? *stream : local;
  const double before_us = s.total_us();
  const std::size_t before_launches = s.launch_count();

  ExecResult result;
  static const fusion::TemplateParams kDefaults;

  for (std::size_t si = 0; si < segments.size(); ++si) {
    const auto& seg = segments[si];
    const auto kind = fusion::classify_segment(graph_, seg);
    if (kind == fusion::TemplateKind::kUnifiedMha) {
      if (!mha_supported_) {
        telemetry::count("sim.exec.unsupported_plans");
        result.supported = false;
        result.unsupported_reason = mha_unsupported_reason_;
        return result;
      }
      for (const auto& rec : mha_records_) s.launch(rec.name, rec.cost);
      continue;
    }
    const auto& params =
        plan.segment_params.empty() ? kDefaults : plan.segment_params[si];
    auto cost = fusion::segment_cost(graph_, seg, kind, params, device_);
    if (plan.eager) cost.dispatch_us = device_.dispatch_overhead_us;
    if (cost.occupancy <= 0 && cost.launches > 0) {
      // The requested tiling cannot launch (SMEM or warp budget exceeded)
      // — the Triton compile would fail, so the plan is rejected.
      telemetry::count("sim.exec.unsupported_plans");
      result.supported = false;
      result.unsupported_reason = "infeasible launch configuration";
      return result;
    }
    s.launch(fusion::to_string(kind), cost);
  }

  result.time_us = s.total_us() - before_us;
  result.launches = s.launch_count() - before_launches;
  return result;
}

}  // namespace stof::models
