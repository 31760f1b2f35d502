// Tests for the deterministic RNG substrate.
#include "common/rng.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace dyngossip {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitMix64IsDeterministic) {
  std::uint64_t s1 = 7, s2 = 7;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(DeriveSweepSeeds, IsTheSplitMix64ChainFromTheBaseSeed) {
  std::uint64_t state = 99;
  std::vector<std::uint64_t> chain;
  for (int i = 0; i < 6; ++i) chain.push_back(splitmix64(state));
  EXPECT_EQ(derive_sweep_seeds(6, 99), chain);
  // A shorter sweep is a prefix of a longer one over the same base.
  const std::vector<std::uint64_t> prefix = derive_sweep_seeds(3, 99);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), chain.begin()));
  // Seeds are distinct in practice, so adjacent trials never share streams.
  EXPECT_EQ(std::set<std::uint64_t>(chain.begin(), chain.end()).size(), 6u);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expect, 0.05 * expect);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all seven values hit
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20'000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20'000, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliEmpiricalRate) {
  Rng rng(9);
  int hits = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(10);
  std::vector<int> v{1, 2, 2, 3, 4, 5, 5, 5};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(orig.begin(), orig.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(11);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  const std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability 1/50! of spurious failure
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(12);
  for (std::uint64_t universe : {10ull, 100ull, 1000ull}) {
    for (std::uint64_t count : {std::uint64_t{0}, std::uint64_t{1}, universe / 2,
                                universe}) {
      const auto sample = rng.sample_without_replacement(universe, count);
      EXPECT_EQ(sample.size(), count);
      std::set<std::uint64_t> uniq(sample.begin(), sample.end());
      EXPECT_EQ(uniq.size(), count);
      for (const auto x : sample) EXPECT_LT(x, universe);
    }
  }
}

TEST(Rng, SampleFullUniverseIsPermutation) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(64, 64);
  std::set<std::uint64_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 64u);
  EXPECT_EQ(*uniq.begin(), 0u);
  EXPECT_EQ(*uniq.rbegin(), 63u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(14);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (c1.next() == c2.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, WorksWithStdDistributions) {
  Rng rng(15);
  // UniformRandomBitGenerator interface sanity.
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ull);
  std::uint64_t x = rng();
  (void)x;
}

}  // namespace
}  // namespace dyngossip
