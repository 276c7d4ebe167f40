#include "replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using stof::serve::Request;
using stof::serve::SessionId;
using stof::serve::SessionPhase;

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSubmit:
      return "engine.submit";
    case SpanKind::kExecuteStep:
      return "engine.execute_step";
    case SpanKind::kFinalizeStep:
      return "engine.finalize_step";
    case SpanKind::kClusterStep:
      return "cluster.step";
  }
  return "?";
}

namespace {

double us_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

/// Times `fn` into `spans` when tracing; calls it bare otherwise.
template <class Fn>
auto timed(std::vector<HostSpan>* spans, Clock::time_point origin,
           SpanKind kind, std::int64_t request, Fn&& fn) {
  if (spans == nullptr) return fn();
  const auto start = Clock::now();
  auto result = fn();
  const auto end = Clock::now();
  spans->push_back(HostSpan{kind, request, us_since(origin, start),
                            us_since(origin, end)});
  return result;
}

}  // namespace

Server::Server(const stof::cluster::ClusterConfig& config) {
  if (config.devices == 1) {
    engine_ = std::make_unique<stof::serve::Engine>(config.engine);
  } else {
    cluster_ = std::make_unique<stof::cluster::Cluster>(config);
  }
}

SessionId Server::submit(const Request& r) {
  return engine_ ? engine_->submit(r) : cluster_->submit(r);
}

bool Server::step(std::vector<HostSpan>* spans, Clock::time_point origin) {
  if (cluster_) {
    return timed(spans, origin, SpanKind::kClusterStep, -1,
                 [&] { return cluster_->step(); });
  }
  // Engine::step() is documented as exactly execute_step() followed by
  // finalize_step(outcome, outcome.us); calling the halves lets a traced
  // run time them apart.
  auto outcome = timed(spans, origin, SpanKind::kExecuteStep, -1,
                       [&] { return engine_->execute_step(); });
  if (!outcome) return false;
  timed(spans, origin, SpanKind::kFinalizeStep, -1, [&] {
    engine_->finalize_step(*outcome, outcome->us);
    return true;
  });
  return true;
}

void Server::advance_to(double us) {
  if (engine_) {
    engine_->advance_to(us);
  } else {
    cluster_->advance_to(us);
  }
}

double Server::sim_time_us() const {
  return engine_ ? engine_->sim_time_us() : cluster_->sim_time_us();
}

bool Server::idle() const {
  return engine_ ? engine_->idle() : cluster_->idle();
}

int Server::devices() const { return engine_ ? 1 : cluster_->devices(); }

const stof::serve::Engine& Server::engine(int device) const {
  return engine_ ? *engine_ : cluster_->engine(device);
}

std::uint64_t Server::digest(SessionId id) const {
  return engine_ ? engine_->session(id).digest : cluster_->digests().at(id);
}

double construct(const Workload& w, std::unique_ptr<Server>& server) {
  server.reset();
  const auto start = Clock::now();
  server = std::make_unique<Server>(w.config);
  return seconds_between(start, Clock::now());
}

ReplayResult replay(const Workload& w, Server& s, bool traced) {
  ReplayResult res;
  const auto origin = Clock::now();

  std::vector<HostSpan>* spans = traced ? &res.spans : nullptr;
  if (traced) res.spans.reserve(4 * w.trace.size() + (1u << 16));
  res.requests.resize(w.trace.size());
  for (std::size_t i = 0; i < w.trace.size(); ++i) {
    res.requests[i].due_us = w.trace[i].arrival_us;
    res.processed_tokens +=
        w.trace[i].prompt_len + w.trace[i].max_new_tokens;
  }

  // Trace ids are 0..n-1 in arrival order, so an id indexes `requests`.
  std::vector<SessionId> active;
  std::size_t next = 0;
  while (next < w.trace.size() || !s.idle()) {
    while (next < w.trace.size() &&
           w.trace[next].arrival_us <= s.sim_time_us()) {
      const Request& r = w.trace[next++];
      active.push_back(timed(spans, origin, SpanKind::kSubmit, r.id,
                             [&] { return s.submit(r); }));
    }
    if (s.idle()) {
      s.advance_to(w.trace[next].arrival_us);
      continue;
    }
    const double start = s.sim_time_us();
    if (!s.step(spans, origin)) {
      throw std::runtime_error("server holds queued work but planned no step");
    }
    const double end = s.sim_time_us();
    res.busy_us += end - start;
    ++res.steps;

    std::int64_t emitting = 0;
    for (std::size_t k = 0; k < active.size();) {
      const SessionId id = active[k];
      const stof::serve::Session& sess = s.session(id);
      RequestRecord& rec = res.requests[static_cast<std::size_t>(id)];
      if (rec.admit_us < 0 &&
          (sess.phase != SessionPhase::kQueued || sess.cached_tokens > 0)) {
        rec.admit_us = start;
      }
      if (sess.generated > rec.emitted) {
        if (rec.emitted == 0) {
          rec.first_us = sess.first_token_us;
        } else {
          const double gap = end - rec.last_emit_us;
          res.itl_us.push_back(gap);
          rec.max_gap_us = std::max(rec.max_gap_us, gap);
        }
        rec.emitted = sess.generated;
        rec.last_emit_us = end;
        ++emitting;
      }
      if (sess.phase == SessionPhase::kFinished) {
        rec.finish_us = sess.finish_us;
        rec.finished = true;
        active[k] = active.back();
        active.pop_back();
      } else {
        ++k;
      }
    }
    res.emissions += emitting;
    res.emitting_steps += emitting > 0 ? 1 : 0;
  }
  res.wall_s = seconds_between(origin, Clock::now());
  res.makespan_us = s.sim_time_us();

  for (std::size_t i = 0; i < w.trace.size(); ++i) {
    RequestRecord& rec = res.requests[i];
    const SessionId id = w.trace[i].id;
    rec.preemptions = s.session(id).preemptions;
    rec.digest = s.digest(id);
    res.generated_tokens += rec.emitted;
  }
  return res;
}

}  // namespace perfbench
