// Satellite fuzz/edge tests for the plan format and the tuning DB built on
// it: every truncated or bit-flipped payload must either throw stof::Error
// or (for benign mutations such as a stripped trailing newline) load
// content identical to the original — never crash, never silently
// deserialize different data.
//
// STOFPLAN v2 carries an FNV-1a checksum (a trailing `check <hex>` line),
// so any single bit flip in the payload is detected even when the mutated
// bytes still parse.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "stof/baselines/e2e_plans.hpp"
#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/models/config.hpp"
#include "stof/models/plan_io.hpp"
#include "stof/models/tune_db.hpp"

namespace stof {
namespace {

std::string saved_plan_text(const models::ExecutionPlan& plan) {
  std::stringstream ss;
  models::save_plan(plan, ss);
  return ss.str();
}

models::ExecutionPlan tuned_like_plan() {
  const auto g = models::bert_small().build_graph(1, 128);
  auto plan = baselines::e2e_plan(baselines::Method::kStof, g);
  // Give every segment explicit params so seg lines are exercised.
  const auto n_segments = plan.scheme.segments().size();
  plan.segment_params.assign(n_segments, fusion::TemplateParams{});
  return plan;
}

// ---- STOFPLAN text format --------------------------------------------------

TEST(PlanFuzz, RoundTripSurvives) {
  const auto plan = tuned_like_plan();
  const std::string text = saved_plan_text(plan);
  std::stringstream ss(text);
  const auto loaded = models::load_plan(ss);
  EXPECT_EQ(saved_plan_text(loaded), text);
}

TEST(PlanFuzz, EveryTruncationErrorsOrLoadsIdentical) {
  const auto plan = tuned_like_plan();
  const std::string full = saved_plan_text(plan);
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::stringstream cut(full.substr(0, len));
    try {
      const auto loaded = models::load_plan(cut);
      // Only a stripped trailing newline can load; content must match.
      EXPECT_EQ(saved_plan_text(loaded), full) << "prefix length " << len;
      EXPECT_GE(len, full.size() - 1);
    } catch (const Error&) {
    }
  }
}

TEST(PlanFuzz, EveryBitFlipErrorsOrLoadsIdentical) {
  const auto plan = tuned_like_plan();
  const std::string full = saved_plan_text(plan);
  Rng rng(123);
  int detected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto pos = static_cast<std::size_t>(rng.next_u64() % full.size());
    const int bit = static_cast<int>(rng.next_u64() % 8);
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    std::stringstream ss(mutated);
    try {
      const auto loaded = models::load_plan(ss);
      EXPECT_EQ(saved_plan_text(loaded), full) << "silently loaded a "
                                                  "different plan";
    } catch (const Error&) {
      ++detected;
    }
  }
  EXPECT_GT(detected, 0);
}

TEST(PlanFuzz, MissingOrForgedChecksumErrors) {
  const auto plan = tuned_like_plan();
  const std::string full = saved_plan_text(plan);
  const auto check_pos = full.rfind("check ");
  ASSERT_NE(check_pos, std::string::npos);
  {
    // Strip the check line entirely.
    std::stringstream ss(full.substr(0, check_pos));
    EXPECT_THROW(models::load_plan(ss), Error);
  }
  {
    // Tamper with the body but keep the (now stale) checksum.
    std::string forged = full;
    const auto ops_pos = forged.find("eager 0");
    if (ops_pos != std::string::npos) {
      forged.replace(ops_pos, 7, "eager 1");
      std::stringstream ss(forged);
      EXPECT_THROW(models::load_plan(ss), Error);
    }
  }
  {
    // Garbage hex in the check line.
    std::string forged = full.substr(0, check_pos) + "check zzzz\n";
    std::stringstream ss(forged);
    EXPECT_THROW(models::load_plan(ss), Error);
  }
}

// ---- TuneDb files ----------------------------------------------------------
//
// TuneDb sits on top of the STOFPLAN loader but must *absorb* its errors:
// a damaged database file is a retune, never an exception.

TEST(TuneDbFuzz, MutatedDbFilesAreMissesNeverThrows) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "stof_tunedb_tests" / "fuzz";
  fs::remove_all(dir);
  models::TuneDb db(dir.string());

  const auto g = models::bert_small().build_graph(1, 128);
  const models::TuneKey key{models::graph_fingerprint(g), 128,
                            models::device_fingerprint(gpusim::a100())};
  db.store(key, tuned_like_plan());
  const std::string path = db.path_for(key);
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto expect_ops = static_cast<std::int64_t>(g.size());
  ASSERT_TRUE(db.load(key, expect_ops).has_value());

  Rng rng(31337);
  for (int trial = 0; trial < 120; ++trial) {
    std::string mutated = pristine;
    switch (trial % 3) {
      case 0:  // truncate
        mutated.resize(rng.next_u64() % pristine.size());
        break;
      case 1: {  // single bit flip
        const auto pos =
            static_cast<std::size_t>(rng.next_u64() % mutated.size());
        mutated[pos] =
            static_cast<char>(mutated[pos] ^ (1 << (rng.next_u64() % 8)));
        break;
      }
      default:  // random garbage of random length
        mutated.assign(rng.next_u64() % 200, '\0');
        for (auto& ch : mutated) {
          ch = static_cast<char>(rng.next_u64() & 0xff);
        }
        break;
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    std::optional<models::ExecutionPlan> got;
    EXPECT_NO_THROW(got = db.load(key, expect_ops)) << "trial " << trial;
    if (got.has_value()) {
      // A mutation that still loads must be benign (e.g. a flip inside
      // trailing whitespace): the plan must serialize back to the original.
      EXPECT_EQ(saved_plan_text(*got), saved_plan_text(tuned_like_plan()))
          << "trial " << trial << " silently loaded a different plan";
    }
  }

  // Restore and confirm the database recovers without retuning.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << pristine;
  }
  EXPECT_TRUE(db.load(key, expect_ops).has_value());
}

}  // namespace
}  // namespace stof
