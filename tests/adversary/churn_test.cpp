// Tests for the oblivious churn adversary.
#include "adversary/churn.hpp"

#include <string>

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"

namespace dyngossip {
namespace {

ChurnConfig base_config() {
  ChurnConfig cfg;
  cfg.n = 20;
  cfg.target_edges = 50;
  cfg.churn_per_round = 5;
  cfg.sigma = 1;
  cfg.seed = 42;
  return cfg;
}

TEST(Churn, AlwaysConnected) {
  ChurnAdversary adversary(base_config());
  UnicastRoundView v;
  for (Round r = 1; r <= 300; ++r) {
    v.round = r;
    EXPECT_TRUE(is_connected(adversary.unicast_round(v))) << "round " << r;
  }
}

TEST(Churn, EdgeCountStaysNearTarget) {
  ChurnAdversary adversary(base_config());
  UnicastRoundView v;
  for (Round r = 1; r <= 100; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_GE(g.num_edges(), 45u);
    EXPECT_LE(g.num_edges(), 60u);
  }
}

TEST(Churn, ActuallyChurns) {
  ChurnAdversary adversary(base_config());
  DynamicGraphTracker tracker(20);
  UnicastRoundView v;
  for (Round r = 1; r <= 50; ++r) {
    v.round = r;
    tracker.advance(adversary.unicast_round(v), r);
  }
  // 5 deletions/round (minus warm-up) must show up in TC.
  EXPECT_GT(tracker.topological_changes(), 150u);
  EXPECT_GT(tracker.deletions(), 100u);
}

TEST(Churn, DeterministicUnderSeed) {
  ChurnAdversary a(base_config()), b(base_config());
  UnicastRoundView v;
  for (Round r = 1; r <= 40; ++r) {
    v.round = r;
    EXPECT_EQ(a.unicast_round(v).sorted_edges(), b.unicast_round(v).sorted_edges());
  }
}

TEST(Churn, ObliviousIgnoresViews) {
  // Identical seeds with totally different views must produce identical
  // schedules — the defining property of the oblivious adversary.
  ChurnAdversary a(base_config()), b(base_config());
  std::vector<KnowledgeSet> knowledge_a(20, KnowledgeSet(4, true));
  std::vector<KnowledgeSet> knowledge_b(20, KnowledgeSet(4));
  std::vector<SentRecord> traffic_b{{0, 1, Message::request(2)}};
  for (Round r = 1; r <= 30; ++r) {
    UnicastRoundView va;
    va.round = r;
    va.knowledge = &knowledge_a;
    UnicastRoundView vb;
    vb.round = r;
    vb.knowledge = &knowledge_b;
    vb.prev_messages = &traffic_b;
    EXPECT_EQ(a.unicast_round(va).sorted_edges(), b.unicast_round(vb).sorted_edges());
  }
}

TEST(Churn, FreshGraphModeMaximizesChurn) {
  ChurnConfig cfg = base_config();
  cfg.fresh_graph_each_round = true;
  ChurnAdversary adversary(cfg);
  DynamicGraphTracker tracker(20);
  UnicastRoundView v;
  std::uint64_t edge_sum = 0;
  for (Round r = 1; r <= 30; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_TRUE(is_connected(g));
    edge_sum += g.num_edges();
    tracker.advance(g, r);
  }
  // Fresh graphs share few edges: TC approaches the total edge volume.
  EXPECT_GT(tracker.topological_changes(), edge_sum / 2);
}

TEST(Churn, TinyNetworksSupported) {
  ChurnConfig cfg;
  cfg.n = 2;
  cfg.target_edges = 1;
  cfg.churn_per_round = 1;
  cfg.seed = 9;
  ChurnAdversary adversary(cfg);
  UnicastRoundView v;
  for (Round r = 1; r <= 20; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.num_edges(), 1u);  // the only possible connected 2-node graph
  }
}

TEST(Churn, TargetBelowTreeIsRaised) {
  ChurnConfig cfg;
  cfg.n = 10;
  cfg.target_edges = 3;  // impossible: a connected graph needs >= 9
  cfg.seed = 1;
  ChurnAdversary adversary(cfg);
  UnicastRoundView v;
  v.round = 1;
  const Graph g = adversary.unicast_round(v);
  EXPECT_GE(g.num_edges(), 9u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Churn, GoldenScheduleHashChains) {
  // Each shape's schedule folded into one hash chain over every round's
  // sorted edge set, pinned when the age bookkeeping was a per-edge
  // (key, insertion round) list: a rewrite of the σ-stability scan, the
  // removable list's order, the shuffle's draws or the repairs that changes
  // one edge of one round shows here.
  struct Golden {
    const char* name;
    std::size_t n, edges, churn;
    Round sigma;
    std::uint64_t seed;
    Round rounds;
    std::uint64_t hash;
  };
  const Golden shapes[] = {
      {"sigma1", 64, 192, 8, 1, 11, 400, 0x0173be698170e82dULL},
      {"sigma2", 64, 192, 8, 2, 12, 400, 0x5500d3b382e1e6b0ULL},
      {"sigma3", 64, 192, 8, 3, 13, 400, 0xc8dea08c2ea7b5b9ULL},
      {"sigma5", 64, 192, 8, 5, 14, 400, 0x454332f0429f6e2bULL},
      {"wide_sigma1", 512, 4096, 64, 1, 15, 120, 0x986f4cecb5694267ULL},
      {"wide_sigma3", 512, 4096, 64, 3, 16, 120, 0x1ebc4d47e6e1d6beULL},
      // Near-tree graphs: connect_components repairs almost every round.
      {"sparse_repairs", 64, 70, 24, 1, 17, 400, 0xfe0540ececa27617ULL},
      {"sparse_repairs_sigma2", 64, 66, 30, 2, 18, 400, 0xd3c95b019deece48ULL},
      // churn >= m: every removable edge is cut each round.
      {"churn_over_m", 40, 120, 100000, 1, 19, 200, 0x485eeac07821642cULL},
      {"churn_over_m_sigma3", 40, 120, 100000, 3, 20, 200, 0x75be942192cc91a3ULL},
  };
  for (const Golden& shape : shapes) {
    ChurnConfig cfg;
    cfg.n = shape.n;
    cfg.target_edges = shape.edges;
    cfg.churn_per_round = shape.churn;
    cfg.sigma = shape.sigma;
    cfg.seed = shape.seed;
    ChurnAdversary adversary(cfg);
    std::uint64_t hash = 0;
    std::size_t repaired = 0;  // rounds that needed edges beyond the target
    UnicastRoundView v;
    for (Round r = 1; r <= shape.rounds; ++r) {
      v.round = r;
      const Graph& g = adversary.unicast_round(v);
      if (g.num_edges() > shape.edges) ++repaired;
      hash = (hash ^ r) * 0x100000001b3ULL;
      for (const EdgeKey key : g.sorted_edges()) {
        hash ^= key;
        hash *= 0x100000001b3ULL;
        hash ^= hash >> 29;
      }
    }
    EXPECT_EQ(hash, shape.hash) << shape.name;
    if (std::string(shape.name).rfind("sparse", 0) == 0) {
      EXPECT_GT(repaired, shape.rounds / 2) << shape.name;
    }
  }
}

}  // namespace
}  // namespace dyngossip
