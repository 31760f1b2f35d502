// Bit-reproducibility of the parallel seed sweep against the serial one.
//
// A seed sweep is derive_sweep_seeds, one sample per trial written into a
// preassigned slot, and a Summary::of fold in trial order.  Run through
// parallel_for or through memoized_sweep (no cache attached), the result must
// be bit-identical to the serial loop at any thread count.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "cache/memo_sweep.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "sim/simulator.hpp"

namespace dyngossip {
namespace {

// Exact (bitwise) equality on every Summary field.  The checksum alone is
// the load-bearing check — it folds every raw sample in trial order — and
// the statistic fields double-check Summary::of itself.
void expect_identical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
}

template <typename Measure>
Summary serial_sweep(std::size_t trials, std::uint64_t base_seed,
                     const Measure& measure) {
  std::vector<double> samples;
  for (const std::uint64_t seed : derive_sweep_seeds(trials, base_seed)) {
    samples.push_back(measure(seed));
  }
  return Summary::of(std::move(samples));
}

template <typename Measure>
Summary parallel_sweep(ThreadPool& pool, std::size_t trials,
                       std::uint64_t base_seed, const Measure& measure) {
  const std::vector<std::uint64_t> seeds = derive_sweep_seeds(trials, base_seed);
  std::vector<double> samples(trials);
  parallel_for(pool, trials, [&](std::size_t i) { samples[i] = measure(seeds[i]); });
  return Summary::of(std::move(samples));
}

TEST(DeriveSweepSeeds, MatchesSweepSeedsSeedStream) {
  std::uint64_t state = 99;
  std::vector<std::uint64_t> chain;
  for (int i = 0; i < 6; ++i) chain.push_back(splitmix64(state));
  EXPECT_EQ(derive_sweep_seeds(6, 99), chain);
}

TEST(ParallelSweep, BitIdenticalToSerialAt1_2_8Threads) {
  // Irrational-ish samples so that any reordering of the fold would show up
  // in the low bits of mean/stddev.
  const auto measure = [](std::uint64_t seed) {
    return std::sin(static_cast<double>(seed % 100'000)) * 1e6 +
           std::sqrt(static_cast<double>(seed % 997));
  };
  const std::size_t trials = 37;  // deliberately not a multiple of any pool size
  const Summary serial = serial_sweep(trials, 0xfeedface, measure);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    expect_identical(serial, parallel_sweep(pool, trials, 0xfeedface, measure));
  }
}

TEST(ParallelSweep, BitIdenticalOnARealSimulationWorkload) {
  const std::size_t n = 16;
  const auto k = static_cast<std::uint32_t>(2 * n);
  const auto measure = [n, k](std::uint64_t seed) {
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 3 * n;
    cc.churn_per_round = 2;
    cc.sigma = 3;
    cc.seed = seed;
    ChurnAdversary adversary(cc);
    const RunResult r =
        run_single_source(n, k, 0, adversary, static_cast<Round>(100 * n * k));
    return static_cast<double>(r.metrics.unicast.total());
  };
  const Summary serial = serial_sweep(5, 4242, measure);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    expect_identical(serial, parallel_sweep(pool, 5, 4242, measure));
  }
}

TEST(ParallelSweep, MemoizedSweepWithoutCacheMatchesSerialTrials) {
  const std::size_t n = 16;
  const auto k = static_cast<std::uint32_t>(n);
  std::vector<KeyedTrial> trials;
  for (const std::uint64_t seed : derive_sweep_seeds(7, 31)) {
    trials.push_back(keyed_trial(make_run_key("single_source", "churn:sigma=3",
                                              FaultSpec{}.to_string(), n, k, 1,
                                              static_cast<Round>(100 * n * k),
                                              seed)));
  }
  std::vector<CachedResult> serial;
  for (const KeyedTrial& t : trials) serial.push_back(t.run(nullptr));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const std::vector<MemoOutcome> outcomes =
        memoized_sweep(trials, /*cache=*/nullptr, pool);
    ASSERT_EQ(outcomes.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_FALSE(outcomes[i].from_cache);
      EXPECT_EQ(outcomes[i].row.checksum, serial[i].checksum);
      EXPECT_EQ(outcomes[i].row.k_realized, serial[i].k_realized);
      EXPECT_EQ(outcomes[i].row.metrics.unicast.total(),
                serial[i].metrics.unicast.total());
    }
  }
}

TEST(ParallelSweep, SingleTrial) {
  const auto measure = [](std::uint64_t seed) {
    return static_cast<double>(seed & 0xff);
  };
  ThreadPool pool(4);
  expect_identical(serial_sweep(1, 5, measure), parallel_sweep(pool, 1, 5, measure));
}

}  // namespace
}  // namespace dyngossip
