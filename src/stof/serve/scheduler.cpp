#include "stof/serve/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {

StepPlan Scheduler::plan_step(SessionTable& table, KvPool& pool) {
  return config_.mode == SchedulerMode::kSerial ? plan_serial(table, pool)
                                                : plan_continuous(table, pool);
}

SessionId Scheduler::pick_victim(const SessionTable& table,
                                 const std::vector<SessionId>& candidates) {
  STOF_EXPECTS(!candidates.empty(), "no preemption candidate");
  SessionId best = candidates.front();
  for (const auto id : candidates) {
    const auto& s = table.at(id);
    const auto& b = table.at(best);
    if (s.request.priority != b.request.priority) {
      if (s.request.priority < b.request.priority) best = id;
      continue;
    }
    if (s.last_touch_step < b.last_touch_step ||
        (s.last_touch_step == b.last_touch_step && id > best)) {
      best = id;
    }
  }
  return best;
}

void Scheduler::evict(SessionTable& table, KvPool& pool, StepPlan& plan,
                      SessionId victim) {
  Session& s = table.at(victim);
  telemetry::count("serve.kv.evictions");
  // Cost model: only private (refcount == 1) pages actually return to the
  // free list — shared prefix pages stay resident for their other owners,
  // so crediting blocks() would over-value evicting a prefix-sharing
  // session.
  telemetry::count("serve.kv.evicted_blocks", pool.private_blocks(victim));
  telemetry::count("serve.sched.preemptions_by_priority.p" +
                   std::to_string(s.request.priority));
  pool.release(victim);
  s.phase = SessionPhase::kQueued;
  s.cached_tokens = 0;
  s.adopted_tokens = 0;
  ++s.preemptions;
  waiting_.push_front(victim);
  plan.evicted.push_back(victim);
  std::erase(prefilling_, victim);
  // A victim may already hold a window in this step's plan (priority
  // preemption runs after ongoing prefills were granted); withdraw it.
  std::erase_if(plan.prefills,
                [&](const PrefillChunk& c) { return c.id == victim; });
}

std::int64_t Scheduler::adopt_cap(const Session& s) const {
  // A re-admitted session's digest already covers [0, folded): adopting
  // past that would skip positions it still owes.  A fresh session may
  // adopt its whole template (its digest is seeded at the boundary).
  return s.folded_tokens > 0 ? s.folded_tokens : s.request.template_len;
}

PrefixMatch Scheduler::admission_match(const KvPool& pool,
                                       const Session& s) const {
  if (!config_.prefix_sharing || s.request.template_len <= 0) return {};
  return pool.match_prefix(s.request, adopt_cap(s));
}

void Scheduler::admit_with_prefix(Session& s, KvPool& pool) const {
  if (!config_.prefix_sharing || s.request.template_len <= 0) return;
  const PrefixMatch m =
      pool.adopt_prefix(s.request.id, s.request, adopt_cap(s));
  if (m.tokens == 0) return;
  s.cached_tokens = m.tokens;
  s.adopted_tokens = m.tokens;
}

bool Scheduler::template_prefilling(const SessionTable& table,
                                    const Session& s) const {
  if (!config_.prefix_sharing || s.request.template_len <= 0) return false;
  const Request& r = s.request;
  return std::ranges::any_of(prefilling_, [&](SessionId id) {
    const Request& p = table.at(id).request;
    return p.template_seed == r.template_seed &&
           p.template_len == r.template_len && p.mask_kind == r.mask_kind;
  });
}

std::vector<SessionId> Scheduler::admission_order(
    const SessionTable& table) const {
  std::vector<SessionId> order(waiting_.begin(), waiting_.end());
  std::stable_sort(
      order.begin(), order.end(), [&](SessionId a, SessionId b) {
        const auto& ra = table.at(a).request;
        const auto& rb = table.at(b).request;
        if (ra.priority != rb.priority) return ra.priority > rb.priority;
        constexpr double kNone = std::numeric_limits<double>::infinity();
        const double da = ra.deadline_us > 0 ? ra.deadline_us : kNone;
        const double db = rb.deadline_us > 0 ? rb.deadline_us : kNone;
        return da < db;  // stable sort keeps queue order inside ties
      });
  return order;
}

StepPlan Scheduler::plan_continuous(SessionTable& table, KvPool& pool) {
  StepPlan plan;

  // Sessions whose prefix completed moved to kDecoding; evicted ones went
  // back to kQueued.  Either way they leave the prefilling line.
  std::erase_if(prefilling_, [&](SessionId id) {
    return table.at(id).phase != SessionPhase::kPrefilling;
  });

  // Decode set: every active session, least-recently-decoded first so the
  // batch cap (when it binds) round-robins instead of starving high ids.
  std::vector<SessionId> selected = table.ids_in_phase(SessionPhase::kDecoding);
  std::stable_sort(selected.begin(), selected.end(),
                   [&](SessionId a, SessionId b) {
                     return table.at(a).last_touch_step <
                            table.at(b).last_touch_step;
                   });
  selected.resize(std::min<std::size_t>(
      selected.size(), static_cast<std::size_t>(config_.max_decode_batch)));
  const auto decode_blocks_needed = [&] {
    std::int64_t n = 0;
    for (const auto id : selected) {
      n += pool.append_reserve_blocks(id, decode_appends_);
    }
    return n;
  };

  // Whole-prefill mode spends prefill_token_budget on atomic grants: a
  // session gets its whole window [cached, total) or nothing.  Chunked mode
  // spends chunk_tokens on slices of any non-empty length.
  const bool atomic = !config_.chunked();
  const auto min_grant = [&](std::int64_t left) { return atomic ? left : 1; };
  std::int64_t budget = config_.step_prefill_budget();
  std::int64_t reserved_windows = 0;
  const std::int64_t block_tokens = pool.config().block_tokens;

  // Evicting a victim whose window was already granted this step withdraws
  // it (evict() erases it from the plan); the withdrawn tokens go back
  // into the step budget and the withdrawn blocks back into the
  // reservation count, so later grants can use the headroom the victim
  // gave up.  Must read pool.usable_blocks(victim) before evict() releases
  // them (usable, matching what the grant charged: a shared partial tail
  // never counted as a block the window could reuse).
  const auto evict_refunded = [&](SessionId victim) {
    for (const auto& w : plan.prefills) {
      if (w.id == victim) {
        budget += w.tokens();
        reserved_windows -= pool.blocks_for(w.end) - pool.usable_blocks(victim);
        break;
      }
    }
    evict(table, pool, plan, victim);
  };

  // Preempt residents (anyone holding KV blocks — decoders and mid-prefill
  // sessions alike) that `eligible` accepts, pick_victim's choice first,
  // until `satisfied()`.  False when the candidates run out first.
  const auto preempt_until = [&](const auto& satisfied, const auto& eligible) {
    while (!satisfied()) {
      std::vector<SessionId> cands;
      for (const auto& [id, s] : table) {
        if ((s.phase == SessionPhase::kDecoding ||
             s.phase == SessionPhase::kPrefilling) &&
            pool.blocks(id) > 0 && eligible(id)) {
          cands.push_back(id);
        }
      }
      if (cands.empty()) return false;
      const SessionId victim = pick_victim(table, cands);
      evict_refunded(victim);
      std::erase(selected, victim);
    }
    return true;
  };
  const auto outranked_by = [&](const Session& s) {
    return [&table, p = s.request.priority](SessionId cand) {
      return table.at(cand).request.priority < p;
    };
  };

  // KV pressure from the decode batch (against allocatable: tree-only
  // pages are reclaimed by allocation before anyone is preempted).
  preempt_until(
      [&] { return pool.allocatable_blocks() >= decode_blocks_needed(); },
      [](SessionId) { return true; });

  // Grant one window of up to `budget` tokens, shrunk to the KV blocks
  // available this step (never below min_grant); a starved window may
  // preempt strictly-lower-priority residents.  Returns true if granted.
  const auto grant_window = [&](SessionId id) {
    Session& s = table.at(id);
    // A grant for an earlier (higher-priority) session may have preempted
    // this one — mid-prefill residents are victims — sending it back to
    // the wait queue with its KV released.  Granting anyway would hand
    // blocks to a kQueued session that is also in plan.evicted, leaking
    // KV outside preemption's view.  Skip anything not mid-prefill.
    if (s.phase != SessionPhase::kPrefilling) return false;
    const std::int64_t have = s.cached_tokens;
    const std::int64_t least = min_grant(s.total_len() - have);
    const std::int64_t want = std::min(s.total_len() - have, budget);
    if (want < least) return false;
    std::int64_t granted = 0;
    const auto grantable = [&] {
      const std::int64_t avail =
          pool.allocatable_blocks() - decode_blocks_needed() -
          reserved_windows;
      // usable, not blocks: a shared partial tail is CoW'd by the first
      // append, so it does not save an allocation.
      granted = std::min(
          want, (pool.usable_blocks(id) + avail) * block_tokens - have);
      return granted >= least;
    };
    if (!preempt_until(grantable, outranked_by(s))) return false;
    plan.prefills.push_back(PrefillChunk{id, have, have + granted});
    budget -= granted;
    reserved_windows +=
        pool.blocks_for(have + granted) - pool.usable_blocks(id);
    return true;
  };

  // Ongoing prefills continue first, in admission order.
  for (const auto id : std::vector<SessionId>(prefilling_.begin(),
                                              prefilling_.end())) {
    if (budget <= 0) break;
    grant_window(id);
  }

  // Fairness top-up: each tenant with queued work earns quantum * weight
  // tokens per planning step, capped so an idle tenant cannot bank
  // unbounded credit.
  const bool fair = config_.fairness_quantum_tokens > 0;
  if (fair && !waiting_.empty()) {
    const std::int64_t pool_tokens = pool.total_blocks() * block_tokens;
    std::map<std::int32_t, bool> active;
    for (const auto id : waiting_) active[table.at(id).request.tenant] = true;
    for (const auto& [tenant, _] : active) {
      const std::int64_t w = tenant_weight(tenant);
      const std::int64_t cap =
          std::max(4 * config_.fairness_quantum_tokens * w, pool_tokens);
      deficit_[tenant] = std::min(
          deficit_[tenant] + config_.fairness_quantum_tokens * w, cap);
    }
  }

  // Admit `id` into the prefilling line, adopt its shared prefix, charge
  // its tenant once, and grant its first window.
  const auto admit = [&](SessionId id) {
    Session& s = table.at(id);
    std::erase(waiting_, id);
    s.phase = SessionPhase::kPrefilling;
    prefilling_.push_back(id);
    admit_with_prefix(s, pool);
    if (fair && !s.deficit_charged) {
      deficit_[s.request.tenant] -= s.request.target_len();
      s.deficit_charged = true;
    }
    grant_window(id);
  };

  // Admission: priority-then-deadline-then-FIFO order, bounded by the
  // in-flight prefill cap.  A tenant whose deficit cannot cover the
  // session's target length waits (others may pass — its credit grows
  // every step, so the wait is bounded); if the ordered head cannot get
  // its first window's budget or KV, nobody overtakes it.
  const auto order = admission_order(table);
  for (const auto id : order) {
    if (budget <= 0) break;
    if (static_cast<std::int64_t>(prefilling_.size()) >=
        config_.max_prefills_per_step) {
      break;
    }
    Session& s = table.at(id);
    if (fair && !s.deficit_charged &&
        deficit_[s.request.tenant] < s.request.target_len()) {
      telemetry::count("serve.sched.deficit_deferrals");
      continue;
    }
    const PrefixMatch m = admission_match(pool, s);
    if (m.tokens < s.request.template_len && template_prefilling(table, s)) {
      // Its template is being computed by a session mid-prefill: wait for
      // the publish and adopt it rather than compute it a second time.
      telemetry::count("serve.sched.prefix_deferrals");
      continue;
    }
    const std::int64_t first_end = std::min(m.tokens + budget, s.total_len());
    if (first_end - m.tokens < min_grant(s.total_len() - m.tokens)) break;
    const std::int64_t first_need = pool.blocks_for(first_end) - m.full_pages;
    // Adopting the match turns its tree-only pages non-reclaimable, so the
    // headroom estimate subtracts the whole match (conservative).  A
    // blocked arrival may preempt strictly-lower-priority residents.
    const auto fits = [&] {
      return first_need <= pool.allocatable_blocks() - m.pages() -
                               decode_blocks_needed() - reserved_windows;
    };
    if (!preempt_until(fits, outranked_by(s))) break;
    admit(id);
  }

  // Work conservation: the engine must never idle while work is queued.
  if (plan.prefills.empty() && selected.empty()) {
    if (!prefilling_.empty()) {
      // Every free block is held by other residents; force-evict
      // (ignoring priority) until the line's head gets its window.
      const SessionId head = prefilling_.front();
      preempt_until([&] { return grant_window(head); },
                    [&](SessionId cand) { return cand != head; });
    } else if (!waiting_.empty()) {
      // Everyone was deficit-gated: force-admit the ordered head anyway
      // (the charge still applies, so its tenant repays over time).
      for (const auto id : order) {
        if (table.at(id).phase != SessionPhase::kQueued) continue;
        if (fair) telemetry::count("serve.sched.forced_admissions");
        admit(id);
        break;
      }
    }
  }

  if (fair) {
    for (const auto& [tenant, tokens] : deficit_) {
      telemetry::gauge("serve.sched.tenant_deficit.t" + std::to_string(tenant),
                       static_cast<double>(tokens));
    }
  }

  std::sort(selected.begin(), selected.end());
  plan.decodes = std::move(selected);
  return plan;
}

StepPlan Scheduler::plan_serial(SessionTable& table, KvPool& pool) {
  StepPlan plan;
  const auto decoding = table.ids_in_phase(SessionPhase::kDecoding);
  STOF_CHECK(decoding.size() <= 1, "serial mode runs one session at a time");
  if (!decoding.empty()) {
    // Serial never preempts: the pool is validated to hold one full
    // context, and only one session ever holds blocks.
    plan.decodes = decoding;
    return plan;
  }
  if (!waiting_.empty()) {
    const SessionId id = waiting_.front();
    Session& s = table.at(id);
    const PrefixMatch m = admission_match(pool, s);
    const std::int64_t avail =
        pool.free_blocks() +
        std::max<std::int64_t>(0, pool.reclaimable_blocks() - m.pages());
    STOF_CHECK(pool.blocks_for(s.total_len()) - m.full_pages <= avail,
               "pool too small for a single context");
    waiting_.pop_front();
    s.phase = SessionPhase::kPrefilling;
    admit_with_prefix(s, pool);
    plan.prefills.push_back(PrefillChunk{id, s.cached_tokens, s.total_len()});
  }
  return plan;
}

}  // namespace stof::serve
