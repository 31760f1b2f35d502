// Tests for connectivity queries and repairs.
#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace dyngossip {
namespace {

TEST(Connectivity, ComponentsOfDisconnectedGraph) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.count, 4u);  // {0,1},{2,3},{4},{5}
  EXPECT_EQ(info.labels[0], info.labels[1]);
  EXPECT_EQ(info.labels[2], info.labels[3]);
  EXPECT_NE(info.labels[0], info.labels[2]);
  EXPECT_NE(info.labels[4], info.labels[5]);
  EXPECT_EQ(info.representatives.size(), 4u);
}

TEST(Connectivity, IsConnectedCases) {
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_FALSE(is_connected(Graph(2)));
  EXPECT_TRUE(is_connected(path_graph(10)));
  Graph g = path_graph(10);
  g.remove_edge(4, 5);
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, ConnectComponentsAddsMinimumEdges) {
  Rng rng(3);
  Graph g(9);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  // components: {0,1},{2,3},{4,5},{6},{7},{8} -> 6 components
  const auto added = connect_components(g, rng);
  EXPECT_EQ(added.size(), 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, ConnectAlreadyConnectedIsNoop) {
  Rng rng(4);
  Graph g = cycle_graph(8);
  const std::size_t before = g.num_edges();
  EXPECT_TRUE(connect_components(g, rng).empty());
  EXPECT_EQ(g.num_edges(), before);
}

TEST(Connectivity, BfsTreeOnPath) {
  const Graph g = path_graph(5);
  const BfsTree t = bfs_tree(g, 0);
  EXPECT_EQ(t.parent[0], 0u);
  EXPECT_EQ(t.parent[3], 2u);
  EXPECT_EQ(t.depth[4], 4u);
  EXPECT_EQ(t.order.front(), 0u);
  EXPECT_EQ(t.order.size(), 5u);
}

TEST(Connectivity, BfsTreeOnStarFromLeaf) {
  const Graph g = star_graph(6, 0);
  const BfsTree t = bfs_tree(g, 5);
  EXPECT_EQ(t.depth[5], 0u);
  EXPECT_EQ(t.depth[0], 1u);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(t.depth[v], 2u);
    EXPECT_EQ(t.parent[v], 0u);
  }
}

TEST(Connectivity, BfsTreeDepthsAreShortestPaths) {
  Rng rng(5);
  const Graph g = connected_erdos_renyi(40, 0.1, rng);
  const BfsTree t = bfs_tree(g, 0);
  // Every edge violates the BFS property by at most one level.
  for (const EdgeKey key : g.edges()) {
    const auto [u, v] = edge_endpoints(key);
    const auto du = static_cast<int>(t.depth[u]);
    const auto dv = static_cast<int>(t.depth[v]);
    EXPECT_LE(std::abs(du - dv), 1);
  }
}

TEST(Connectivity, CheckerMatchesUnionFindOracle) {
  Rng rng(31);
  ConnectivityChecker checker;
  RoundGraphView view;
  for (int trial = 0; trial < 40; ++trial) {
    Graph g = random_connected_with_edges(24, 40, rng);
    // Randomly delete a few edges; about half the trials disconnect.
    const std::vector<EdgeKey> edges = g.sorted_edges();
    for (int cut = 0; cut < 6; ++cut) {
      const auto [u, v] = edge_endpoints(edges[rng.next_below(edges.size())]);
      g.remove_edge(u, v);
    }
    view.rebuild(g);
    EXPECT_EQ(checker.is_connected(view), is_connected(g)) << "trial " << trial;
  }
}

TEST(Connectivity, IncrementalGraphCheckMatchesUnionFindOracle) {
  // The same Graph checked round after round, for thousands of rounds: the
  // checker re-spans its tree from the edit journal.  Cuts of varying size
  // disconnect it now and then; sometimes the graph is repaired, sometimes
  // left for later rounds.  Both re-attach paths must run: the bounded
  // walk and the full relabel behind it.
  Rng rng(17);
  std::uint64_t local = 0;
  std::uint64_t relabels = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 8 + rng.next_below(40);
    Graph g = random_connected_with_edges(n, n + rng.next_below(2 * n), rng);
    ConnectivityChecker checker;
    for (int round = 0; round < 1000; ++round) {
      const std::size_t cuts = rng.next_below(1 + g.num_edges() / 4);
      for (std::size_t c = 0; c < cuts; ++c) {
        const std::vector<EdgeKey> edges = g.sorted_edges();
        if (edges.empty()) break;
        const auto [u, v] = edge_endpoints(edges[rng.next_below(edges.size())]);
        g.remove_edge(u, v);
        if (rng.bernoulli(0.2)) g.add_edge(u, v);  // cut and re-added
      }
      for (std::size_t a = rng.next_below(cuts + 2); a > 0; --a) {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        const auto v = static_cast<NodeId>(rng.next_below(n));
        if (u != v) g.add_edge(u, v);
      }
      const Graph oracle = g;  // a copy carries no verdict of g's checks
      ASSERT_EQ(checker.is_connected(g), connected_components(oracle).count == 1)
          << "trial " << trial << " round " << round;
      if (rng.bernoulli(0.5)) connect_components(g, rng);
    }
    local += checker.local_reattaches();
    relabels += checker.relabels();
  }
  EXPECT_GT(local, 1000u);
  EXPECT_GT(relabels, 100u);
}

TEST(Connectivity, CheckerTrivialCases) {
  ConnectivityChecker checker;
  EXPECT_TRUE(checker.is_connected(RoundGraphView(Graph(0))));
  EXPECT_TRUE(checker.is_connected(RoundGraphView(Graph(1))));
  EXPECT_FALSE(checker.is_connected(RoundGraphView(Graph(2))));
}

}  // namespace
}  // namespace dyngossip
