// Tests for run termination classification (RunStatus) and the residual
// coverage metric, on both round engines: starved runs report round_cap
// with partial coverage, total loss stalls instead of spinning to the cap, a
// full crash without recovery is terminal, and the wall-clock watchdog
// classifies timeouts.  Each case runs phase flooding on the broadcast
// engine and Algorithm 1 on the unicast engine over the same churn schedule.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "core/flooding.hpp"
#include "core/single_source.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "metrics/accounting.hpp"

namespace dyngossip {
namespace {

enum class EngineKind { kBroadcast, kUnicast };

ChurnAdversary make_adversary(std::size_t n) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 17;
  return ChurnAdversary(cc);
}

/// One run of n nodes and k tokens on the churn schedule: phase flooding
/// with tokens spread round-robin (broadcast), or Algorithm 1 from node 0
/// (unicast).
RunMetrics run_engine(EngineKind kind, std::size_t n, std::size_t k, Round cap,
                      FaultPlan* faults, double timeout_seconds = 0.0) {
  ChurnAdversary adversary = make_adversary(n);
  if (kind == EngineKind::kUnicast) {
    const SingleSourceConfig cfg{n, static_cast<std::uint32_t>(k), 0};
    UnicastEngineOptions opts;
    opts.env() = {faults, timeout_seconds, {}};
    UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                         SingleSourceNode::initial_knowledge(cfg), k, opts);
    return engine.run(cap);
  }
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[t % n].set(t);
  BroadcastEngineOptions opts;
  opts.env() = {faults, timeout_seconds, {}};
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary,
                         init, k, opts);
  return engine.run(cap);
}

class RunStatusTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RunStatusTest, CompletedRunReportsFullCoverage) {
  const RunMetrics m = run_engine(GetParam(), 24, 24, 6'000, nullptr);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kCompleted);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
}

TEST_P(RunStatusTest, StarvedRunHitsRoundCapWithResidualCoverage) {
  // Five rounds cannot finish a 24-token spread: the run must classify as
  // round_cap and report the partial coverage it reached (the initial
  // placement alone is 1/n of the universe, so strictly > 0).
  const RunMetrics m = run_engine(GetParam(), 24, 24, 5, nullptr);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kRoundCap);
  EXPECT_EQ(m.rounds, 5u);
  EXPECT_GT(m.coverage, 0.0);
  EXPECT_LT(m.coverage, 1.0);
}

TEST_P(RunStatusTest, TotalLossStallsInsteadOfSpinningToTheCap) {
  // drop=1 delivers nothing, ever.  The fault-active stall window
  // (max(256, 2n) quiet rounds) must end the run as `stalled` long before
  // the 6000-round cap — terminating, not spinning.
  FaultSpec spec;
  spec.drop = 1.0;
  FaultPlan plan(spec, 24, 9);
  const RunMetrics m = run_engine(GetParam(), 24, 24, 6'000, &plan);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kStalled);
  EXPECT_LT(m.rounds, 1'000u);
  EXPECT_LT(m.coverage, 1.0);
}

TEST_P(RunStatusTest, AllDownWithoutRecoveryIsTerminal) {
  FaultSpec spec;
  spec.crash = 1.0;  // recover stays 0: the outage is permanent
  FaultPlan plan(spec, 24, 9);
  const RunMetrics m = run_engine(GetParam(), 24, 24, 6'000, &plan);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kAllDown);
  EXPECT_LT(m.rounds, 16u);  // detected as soon as the mask empties
}

TEST_P(RunStatusTest, WatchdogClassifiesOverBudgetTrialsAsTimeout) {
  // An unmeetable budget on a run that cannot complete (drop=1): the
  // watchdog (checked every 32 rounds) must fire before the stall window
  // would — timeout outranks stalled in the classification.
  FaultSpec spec;
  spec.drop = 1.0;
  FaultPlan plan(spec, 24, 9);
  const RunMetrics m = run_engine(GetParam(), 24, 24, 6'000, &plan, 1e-9);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kTimeout);
  EXPECT_LT(m.rounds, 256u);  // fired before the quiet window elapsed
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RunStatusTest,
    ::testing::Values(EngineKind::kBroadcast, EngineKind::kUnicast),
    [](const ::testing::TestParamInfo<EngineKind>& info) -> std::string {
      return info.param == EngineKind::kBroadcast ? "Broadcast" : "Unicast";
    });

TEST(RunStatus, StatusNamesAreStable) {
  // JSON/CSV consumers key on these strings; renames are format breaks.
  EXPECT_STREQ(run_status_name(RunStatus::kCompleted), "completed");
  EXPECT_STREQ(run_status_name(RunStatus::kRoundCap), "round_cap");
  EXPECT_STREQ(run_status_name(RunStatus::kStalled), "stalled");
  EXPECT_STREQ(run_status_name(RunStatus::kAllDown), "all_down");
  EXPECT_STREQ(run_status_name(RunStatus::kTimeout), "timeout");
}

}  // namespace
}  // namespace dyngossip
