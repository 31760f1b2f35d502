// Pinned payload checksums: six trials whose payload bytes are frozen, so
// a change to the per-round graph plane (CSR view, diff, connectivity
// check), to the unicast send phase or to the churn adversaries cannot
// silently change results.
//
//   - the small frontier shape: Algorithm 1, n = 512, k = 32, under
//     churn:edges=8n,churn=n/8 (the graph plane does most of the work);
//   - a faulted flooding: trial, whose delivery fates are position hashes
//     of arc indices, so any renumbering of the CSR arcs shows;
//   - an async_push_pull trial on churn (the continuous-time engine);
//   - a single_source and a multi_source:sources=4 trial under crashes
//     with recovery, amnesia, drops and duplicates on a fast churn, so
//     that crashed requesting nodes recover onto edges that changed while
//     they were down (the unicast engine's crash rule for edge `since`
//     rounds and the wake set's recovery and delivery wake-ups);
//   - a two-phase oblivious trial under crashes with recovery and amnesia
//     whose phase 2 shares phase 1's graph plane; nodes crash in phase 2's
//     first round and recover onto edges whose phase-1 since rounds phase 2
//     must not see.
//
// The first three checksums were taken from the engines before the graph
// plane patched its per-round state from the adversary's edits; the two
// faulted unicast ones before the engine kept per-arc since rounds and
// skipped quiescent nodes; the oblivious one while each phase engine still
// owned its own plane.  Each trial is checked serially and again at 4
// threads: handed a 4-worker engine pool from the test thread, and all
// six run concurrently on the pool.  Sharded rounds
// only engage at n >= 4096; sharded_identity_test covers them at test
// sizes.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "trace/run_payload.hpp"

namespace dyngossip {
namespace {

struct PinnedTrial {
  const char* algo;
  const char* adversary;
  const char* fault;  ///< empty: fault-free
  std::size_t n;
  std::uint32_t k;
  std::uint64_t seed;
  std::uint64_t checksum;
};

const std::vector<PinnedTrial>& pinned_trials() {
  static const std::vector<PinnedTrial> trials = {
      {"single_source", "churn:churn=64,edges=4096", "", 512, 32,
       9'000 + 13 * 512, 0x16e063a701e3dd48ULL},
      {"flooding:", "churn:churn=8,edges=256", "crash=0.01,drop=0.1,dup=0.05,recover=0.2",
       64, 16, 77, 0x523899ec88f19dc7ULL},
      {"async_push_pull:", "churn:churn=8,edges=256", "", 64, 16, 91,
       0x0da15a5a7f026539ULL},
      {"single_source", "churn:churn=64,edges=1024",
       "crash=0.003,recover=0.05,amnesia=1,drop=0.05,dup=0.05", 128, 32, 41,
       0x4db7cd1b8fb6d36dULL},
      {"multi_source:sources=4", "churn:churn=64,edges=1024",
       "crash=0.003,recover=0.05,amnesia=1,drop=0.05,dup=0.05", 128, 32, 43,
       0x883ec8ffc4d740beULL},
      {"oblivious:sources=16,force_phase1=true,f=64", "churn:churn=64,edges=1024",
       "crash=0.02,recover=0.3,amnesia=1,dup=0.05", 128, 32, 125,
       0xbf0e47ab1b4394e5ULL},
  };
  return trials;
}

std::uint64_t run_trial(const PinnedTrial& t, ThreadPool* engine_pool) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(t.adversary), t.n, t.seed);
  const FaultSpec fault_spec =
      std::string(t.fault).empty() ? FaultSpec{} : FaultSpec::parse(t.fault);
  FaultPlan plan(fault_spec, t.n, t.seed);
  AlgoBuildContext ctx;
  ctx.n = t.n;
  ctx.k = t.k;
  ctx.sources = 1;
  ctx.cap = 100 * static_cast<Round>(t.k) + static_cast<Round>(t.n);
  ctx.seed = t.seed;
  ctx.engine_pool = engine_pool;
  if (fault_spec.active()) ctx.faults = &plan;
  const RunResult run = run_algo(AlgoSpec::parse(t.algo), ctx, *adversary);
  return run_payload_checksum(t.n, ctx.k_realized, run);
}

TEST(PinnedPayloads, SerialRunsMatchThePinnedChecksums) {
  for (const PinnedTrial& t : pinned_trials()) {
    EXPECT_EQ(run_trial(t, nullptr), t.checksum) << t.algo << " on " << t.adversary;
  }
}

TEST(PinnedPayloads, FourThreadRunsMatchThePinnedChecksums) {
  ThreadPool pool(4);
  for (const PinnedTrial& t : pinned_trials()) {
    EXPECT_EQ(run_trial(t, &pool), t.checksum) << t.algo << " on " << t.adversary;
  }
  const std::vector<PinnedTrial>& trials = pinned_trials();
  std::vector<std::uint64_t> concurrent(trials.size(), 0);
  parallel_for(pool, trials.size(),
               [&](std::size_t i) { concurrent[i] = run_trial(trials[i], nullptr); });
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(concurrent[i], trials[i].checksum) << trials[i].algo;
  }
}

}  // namespace
}  // namespace dyngossip
