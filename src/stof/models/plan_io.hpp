// Execution-plan serialization.
//
// The tuner's output — the fusion scheme (as its hex hash code) plus the
// per-segment template parameters — is small and human-auditable, so plans
// are persisted as a line-oriented text format:
//
//   STOFPLAN v2
//   ops <n> eager <0|1>
//   scheme <hex>
//   seg <i> gemm <bm> <bn> <bk> <warps> <stages> ew <bs> <ipt> norm <bs> <rpb>
//   ...
//   check <16-hex fnv1a64 over every preceding byte>
//
// The trailing `check` line is verified before any content is parsed, so a
// truncated or bit-flipped plan file errors on load instead of silently
// deserializing into a different plan.  Together with models/tune_db.hpp
// this closes the tune-offline / deploy-later loop: tune once per (model,
// shape bucket, device), ship the plan.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "stof/models/executor.hpp"

namespace stof::models {

/// Write `plan` to `os` in the STOFPLAN text format.
void save_plan(const ExecutionPlan& plan, std::ostream& os);

/// Parse a plan previously written by save_plan (throws stof::Error on a
/// malformed stream).
ExecutionPlan load_plan(std::istream& is);

/// File-path conveniences.
void save_plan_file(const ExecutionPlan& plan, const std::string& path);
ExecutionPlan load_plan_file(const std::string& path);

}  // namespace stof::models
