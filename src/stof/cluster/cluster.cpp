#include "stof/cluster/cluster.hpp"

#include <algorithm>
#include <limits>
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

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  config_.validate();
  const std::int64_t total = config_.engine.heads;
  engines_.reserve(static_cast<std::size_t>(config_.devices));
  pending_rows_.resize(static_cast<std::size_t>(config_.devices));
  for (int dev = 0; dev < config_.devices; ++dev) {
    serve::EngineConfig ec = config_.engine;
    if (config_.devices > 1) {
      const HeadRange hr = head_range(total, config_.devices, dev);
      ec.heads = hr.count;
      ec.head_offset = hr.begin;
      ec.total_heads = total;
      // The draft pass is a cost-model-only narrow decode; keep it inside
      // the shard's head range.
      ec.spec_draft_heads = std::min(ec.spec_draft_heads, hr.count);
    }
    engines_.push_back(std::make_unique<serve::Engine>(ec));
    engines_.back()->on_output_row = [this, dev](serve::SessionId id,
                                                 std::int64_t pos,
                                                 std::span<const half> row) {
      pending_rows_[static_cast<std::size_t>(dev)].push_back(
          OutputRow{id, pos, {row.begin(), row.end()}});
    };
  }
  if (config_.engine.model.enabled()) {
    // Sharded engines run the model cost-only (no weights) and publish RAW
    // shard rows; the cluster owns the full-width layer head so its digests
    // match an unsharded engine's transformed digests byte for byte.
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

std::uint64_t Cluster::prefix_chain_key(const serve::Request& r,
                                        std::int64_t tokens) const {
  const std::int64_t bt = config_.engine.block_tokens;
  std::uint64_t h = kFnv1aOffset;
  for (std::int64_t b = 0; b * bt < tokens; ++b) {
    const std::int64_t end = std::min((b + 1) * bt, tokens);
    const std::uint64_t pk = serve::PrefixIndex::page_key(r, b * bt, end);
    h = fnv1a64(&pk, sizeof(pk), h);
  }
  // page_key covers token content only; the folded OUTPUTS also depend on
  // the attention pattern, so the chain value must too.
  const int mk = static_cast<int>(r.mask_kind);
  return fnv1a64(&mk, sizeof(mk), h);
}

void Cluster::drain_output_rows() {
  const auto& ref = pending_rows_[0];
  if (config_.check_lockstep) {
    for (const auto& dev_rows : pending_rows_) {
      STOF_CHECK(dev_rows.size() == ref.size(),
                 "shards must fold the same output rows each step");
    }
  }
  // Assemble the step's full-width rows first: shard d holds heads
  // [head_range(d).begin, ...), so device-order concatenation is the
  // (head, dim) row a single-device engine folds for each position.
  const std::int64_t width = config_.engine.heads * config_.engine.head_size;
  std::vector<half> full(ref.size() * static_cast<std::size_t>(width));
  for (std::size_t j = 0; j < ref.size(); ++j) {
    std::size_t off = j * static_cast<std::size_t>(width);
    for (auto& dev_rows : pending_rows_) {
      const OutputRow& row = dev_rows[j];
      if (config_.check_lockstep) {
        STOF_CHECK(row.id == ref[j].id && row.pos == ref[j].pos,
                   "shard output-row streams diverged");
      }
      std::copy(row.bytes.begin(), row.bytes.end(), full.begin() + off);
      off += row.bytes.size();
    }
    STOF_CHECK(off == (j + 1) * static_cast<std::size_t>(width),
               "shard rows must tile the model width exactly");
  }
  // With a model configured, apply the layer head to the assembled
  // full-width rows before folding.  The head is per-row pure, so one
  // batched call matches an unsharded engine's per-step transforms bit
  // for bit regardless of how that engine batched them.
  if (model_head_ != nullptr && !ref.empty()) {
    TensorH t(Shape{static_cast<std::int64_t>(ref.size()), width});
    std::copy(full.begin(), full.end(), t.data().begin());
    model_head_->transform_rows(t);
    std::copy(t.data().begin(), t.data().end(), full.begin());
  }
  for (std::size_t j = 0; j < ref.size(); ++j) {
    const serve::SessionId id = ref[j].id;
    const std::int64_t pos = ref[j].pos;
    auto it = digests_.find(id);
    if (it == digests_.end()) {
      // First folded row of this session.  A session that adopted a shared
      // prefix starts folding at the adoption boundary (possibly re-set by
      // eviction/re-admission cycles): positions [0, pos) were never
      // computed here, so seed the cluster digest with the chain value
      // recorded when the donor's template rows were folded.  The key is
      // pure template content, so any earlier session with the same
      // template works as the donor — and `pos` is always a published
      // boundary (page multiple or template end) when nonzero.
      std::uint64_t init = kFnv1aOffset;  // matches Session::digest's start
      const serve::Session& s = engines_[0]->session(id);
      if (pos > 0) {
        STOF_CHECK(pos <= s.request.template_len,
                   "a first fold past 0 must sit inside an adopted template");
        const auto cit =
            prefix_chain_.find(prefix_chain_key(s.request, pos));
        STOF_CHECK(cit != prefix_chain_.end(),
                   "adopted prefix must have a recorded cluster chain value");
        init = cit->second;
      }
      it = digests_.emplace(id, init).first;
    }
    it->second = fnv1a64(
        full.data() + j * static_cast<std::size_t>(width),
        static_cast<std::size_t>(width) * sizeof(half), it->second);
    // Record the chain value at template page boundaries — the points a
    // later session can adopt up to.
    const serve::Request& r = engines_[0]->session(id).request;
    if (r.template_len > 0 && pos < r.template_len) {
      const std::int64_t bt = config_.engine.block_tokens;
      if ((pos + 1) % bt == 0 || pos + 1 == r.template_len) {
        prefix_chain_[prefix_chain_key(r, pos + 1)] = it->second;
      }
    }
  }
  for (auto& dev_rows : pending_rows_) dev_rows.clear();
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
    if (config_.check_lockstep) {
      STOF_CHECK(o->prefills.size() == outcomes[0]->prefills.size() &&
                     o->decodes.size() == outcomes[0]->decodes.size() &&
                     o->evicted.size() == outcomes[0]->evicted.size(),
                 "shard schedulers diverged (plan shapes)");
    }
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
    // With a real ModelSpec the collective count comes from it (T5 adds a
    // third all-reduce per layer for cross-attention out-proj); an
    // attention-only cluster charges one layer's two all-reduces
    // (attention out-proj + FFN down-proj).
    const serve::ModelSpec& ms = config_.engine.model;
    const std::int64_t calls =
        ms.enabled() ? ms.collectives_per_layer() * ms.layers : 2;
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
  drain_output_rows();

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
