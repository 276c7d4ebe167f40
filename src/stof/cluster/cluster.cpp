#include "stof/cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "stof/cluster/sharding.hpp"
#include "stof/core/checksum.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::cluster {

void ClusterConfig::validate() const {
  STOF_EXPECTS(devices >= 1, "a cluster needs at least one device");
  STOF_EXPECTS(engine.total_heads == 0 && engine.head_offset == 0,
               "the template engine config must be unsharded");
  STOF_EXPECTS(engine.heads >= devices,
               "every device needs at least one attention head");
  link.validate();
  engine.validate();
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), digest_folder_(config.engine.block_tokens) {
  config_.validate();
  const std::int64_t total = config_.engine.heads;
  engines_.reserve(static_cast<std::size_t>(config_.devices));
  // One cost-only model runtime per distinct shard width: shards of equal
  // width build the same graphs at the same buckets on the same device, so
  // they share one plan table and each bucket tunes (or reads its tuning-
  // DB file) once per cluster.  Shards step one after another (step()),
  // so the table needs no lock.
  std::map<std::int64_t, std::shared_ptr<serve::ModelRuntime>> plans;
  for (int dev = 0; dev < config_.devices; ++dev) {
    serve::EngineConfig ec = config_.engine;
    const HeadRange hr = head_range(total, config_.devices, dev);
    ec.heads = hr.count;
    ec.head_offset = hr.begin;
    ec.total_heads = total;
    std::shared_ptr<serve::ModelRuntime>& model = plans[hr.count];
    if (ec.model.enabled() && !model) {
      model = std::make_shared<serve::ModelRuntime>(
          ec.model, ec.heads, ec.head_size, ec.device,
          /*with_weights=*/false);
    }
    engines_.push_back(std::make_unique<serve::Engine>(ec, model));
  }
  if (config_.engine.model.enabled()) {
    // Shards run the model cost-only (no weights); the cluster owns the
    // full-width layer head, so its digests match an unsharded engine's
    // byte for byte.  The head only transforms rows and never tunes.
    model_head_ = std::make_unique<serve::ModelRuntime>(
        config_.engine.model, config_.engine.heads, config_.engine.head_size,
        config_.engine.device, /*with_weights=*/true);
  }
  telemetry::gauge("cluster.devices", static_cast<double>(config_.devices));
}

serve::SessionId Cluster::submit(const serve::Request& request) {
  serve::SessionId id = 0;
  for (auto& e : engines_) id = e->submit(request);
  return id;
}

void Cluster::advance_to(double us) {
  for (auto& e : engines_) e->advance_to(us);
}

void Cluster::fold_rows(
    const std::vector<std::optional<serve::StepOutcome>>& outcomes) {
  // Shard d holds heads [head_range(d).begin, ...): device-order
  // concatenation is the row a single-device engine commits.
  const serve::OutputRows& ref = outcomes[0]->rows;
  for (const auto& o : outcomes) {
    STOF_CHECK(o->rows.size() == ref.size(),
               "shards must commit the same output rows each step");
  }
  serve::OutputRows full{config_.engine.heads * config_.engine.head_size,
                         {}, {}};
  for (std::size_t j = 0; j < ref.size(); ++j) {
    const auto [id, pos] = ref.keys[j];
    auto dst = full.add(id, pos).begin();
    for (const auto& o : outcomes) {
      STOF_CHECK(o->rows.keys[j].id == id && o->rows.keys[j].pos == pos,
                 "shard output-row streams diverged");
      dst = std::ranges::copy(o->rows.row(j), dst).out;
    }
  }
  digest_folder_.fold(full, model_head_.get(), [this](serve::SessionId id) {
    auto& digest = digests_.try_emplace(id, kFnv1aOffset).first->second;
    return serve::DigestChain{&engines_[0]->session(id).request, &digest,
                              &folded_[id]};
  });
}

bool Cluster::step() {
  std::vector<std::optional<serve::StepOutcome>> outcomes;
  outcomes.reserve(engines_.size());
  for (auto& e : engines_) outcomes.push_back(e->execute_step());

  if (!outcomes[0].has_value()) {
    // Lock-step invariant: either every shard had work or none did.
    for (const auto& o : outcomes) {
      STOF_CHECK(!o.has_value(), "shard schedulers diverged (empty vs not)");
    }
    return false;
  }

  double max_us = 0;
  double min_us = std::numeric_limits<double>::max();
  for (const auto& o : outcomes) {
    STOF_CHECK(o.has_value(), "shard schedulers diverged (empty vs not)");
    STOF_CHECK(o->prefills.size() == outcomes[0]->prefills.size() &&
                   o->decodes.size() == outcomes[0]->decodes.size() &&
                   o->evicted.size() == outcomes[0]->evicted.size(),
               "shard schedulers diverged (plan shapes)");
    max_us = std::max(max_us, o->us);
    min_us = std::min(min_us, o->us);
  }

  // Layer-boundary collectives: 2 all-reduces per layer (attention
  // out-proj + FFN down-proj) over the step's activation rows at model
  // width.  Every shard charges the same cost onto its own timeline.
  double collective_us = 0;
  const std::int64_t rows =
      outcomes[0]->prefill_tokens + outcomes[0]->decode_rows;
  if (config_.devices > 1 && rows > 0) {
    const double payload =
        static_cast<double>(rows * config_.engine.model_heads() *
                            config_.engine.head_size) *
        sizeof(half);
    const CollectiveCost cost = collective_cost(
        CollectiveOp::kAllReduce, config_.link, config_.devices, payload);
    // With a model the count comes from its layer graph (T5 adds a third
    // all-reduce per layer for the cross-attention out-proj); an
    // attention-only cluster charges one layer's two all-reduces
    // (attention out-proj + FFN down-proj).
    const std::int64_t calls =
        model_head_ ? model_head_->collectives_per_layer() *
                          config_.engine.model.layers
                    : 2;
    for (std::int64_t c = 0; c < calls; ++c) {
      for (auto& e : engines_) {
        charge_collective(e->stream_mut(), cost);
      }
      collective_us += cost.time_us;
    }
  }

  const double step_us = max_us + collective_us;
  collective_us_ += collective_us;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    engines_[i]->finalize_step(*outcomes[i], step_us);
  }
  fold_rows(outcomes);

  if (telemetry::enabled()) {
    telemetry::count("cluster.steps");
    if (max_us > 0) {
      telemetry::observe("cluster.step.imbalance_pct",
                         (max_us - min_us) / max_us * 100.0);
    }
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      const double clock = engines_[i]->sim_time_us();
      const double busy = engines_[i]->stream().total_us();
      telemetry::gauge("cluster.device" + std::to_string(i) + ".util_pct",
                       clock > 0 ? busy / clock * 100.0 : 0.0);
    }
  }
  return true;
}

}  // namespace stof::cluster
