// keyed_trial: the one trial body behind a RunKey.  Its row must equal the
// hand-built run of the typed specs the key was rendered from (so parsing
// the canonical key text back is exact) for every registered family, with
// and without faults, serial and engine-sharded; and its cacheable flag
// must refuse file-backed / adaptive schedules and observed trials.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"
#include "telemetry/timeline.hpp"

namespace dyngossip {
namespace {

constexpr std::size_t kN = 16;
constexpr std::uint32_t kK = 16;
// None of these is an AlgoBuildContext default, and the cap binds on some
// runs, so a field keyed_trial failed to carry over would show.
constexpr std::size_t kSources = 3;
constexpr Round kCap = 40;
constexpr std::uint64_t kSeed = 7'001;

/// The reference: the typed specs run through the registry by hand.
CachedResult hand_built(const AlgoSpec& algo, const AdversarySpec& adv,
                        const FaultSpec& fault, ThreadPool* pool) {
  const std::unique_ptr<Adversary> adversary = build_adversary(adv, kN, kSeed);
  FaultPlan plan(fault, kN, kSeed);
  AlgoBuildContext ctx;
  ctx.n = kN;
  ctx.k = kK;
  ctx.sources = kSources;
  ctx.cap = kCap;
  ctx.seed = kSeed;
  ctx.engine_pool = pool;
  ctx.faults = &plan;
  const RunResult run = run_algo(algo, ctx, *adversary);
  return make_cached_result(kN, ctx.k_realized, run);
}

/// Every registered family by its bare name, plus non-default keys.
std::vector<AlgoSpec> algo_specs() {
  std::vector<AlgoSpec> specs;
  for (const AlgoFamily* family : AlgoRegistry::global().list()) {
    specs.push_back(AlgoSpec{family->name, {}});
  }
  for (const char* text : {"single_source:priority=reversed",
                           "random_flooding:seed=5", "async_push:rate=2"}) {
    specs.push_back(AlgoSpec::parse(text));
  }
  return specs;
}

TEST(KeyedTrial, MatchesTheHandBuiltRunForEveryFamily) {
  ThreadPool pool(2);
  for (const AlgoSpec& algo : algo_specs()) {
    const bool static_only =
        AlgoRegistry::global().find(algo.family)->requires_static;
    const AdversarySpec adv =
        AdversarySpec::parse(static_only ? "static" : "churn:sigma=3");
    // The static-only protocol asserts an unchanging neighborhood (a crash
    // changes it) and never re-receiving a token (a duplicate does): it
    // gets the loss part of the fault mix only.
    const std::vector<FaultSpec> faults = {
        FaultSpec{},
        FaultSpec::parse(static_only
                             ? "fault:drop=0.1,seed=3"
                             : "fault:crash=0.01,recover=0.2,drop=0.1,"
                               "dup=0.05,seed=3")};
    for (const FaultSpec& fault : faults) {
      const RunKey key =
          make_run_key(algo.to_string(), adv.to_string(), fault.to_string(),
                       kN, kK, kSources, kCap, kSeed);
      const KeyedTrial trial = keyed_trial(key);
      EXPECT_TRUE(trial.cacheable) << key.canonical_text();
      EXPECT_EQ(trial.key, key);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const CachedResult want = hand_built(algo, adv, fault, p);
        const CachedResult got = trial.run(p);
        EXPECT_EQ(got.checksum, want.checksum)
            << key.canonical_text() << (p != nullptr ? " (pooled)" : "");
        EXPECT_EQ(got.k_realized, want.k_realized) << key.canonical_text();
      }
    }
  }
}

TEST(KeyedTrial, FileBackedAndAdaptiveSchedulesAreNeverCacheable) {
  for (const char* adv : {"trace:file=run.dgt", "scripted:file=run.jsonl",
                          "smoothed:base=run.dgt,flips=1", "lb"}) {
    const RunKey key =
        make_run_key("single_source", adv, "fault", kN, kK, 1, 0, kSeed);
    EXPECT_FALSE(keyed_trial(key).cacheable) << adv;
  }
}

TEST(KeyedTrial, AttachedObserversMakeATrialUncacheable) {
  const RunKey key =
      make_run_key("single_source", "churn", "fault", kN, kK, 1, 0, kSeed);
  EXPECT_TRUE(keyed_trial(key).cacheable);
  RoundProbe probe;
  Telemetry probed;
  probed.probe = &probe;
  EXPECT_FALSE(keyed_trial(key, probed).cacheable);
  TimelineRecorder recorder;
  Telemetry timed;
  timed.timeline = &recorder;
  EXPECT_FALSE(keyed_trial(key, timed).cacheable);
  // A wall-clock budget is not part of the key and leaves it cacheable:
  // only the kTimeout it may produce bypasses write-back.
  EXPECT_TRUE(keyed_trial(key, {}, 5.0).cacheable);
}

}  // namespace
}  // namespace dyngossip
