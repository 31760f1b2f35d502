// Tests for TC(E) accounting (Definition 1.3) and edge ages, which the
// round graph plane's since and the σ-stability validator serve.
#include "graph/dynamic_tracker.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "engine/graph_plane.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/stability.hpp"

namespace dyngossip {
namespace {

TEST(DynamicTracker, FirstRoundCountsAllEdgesAsInsertions) {
  DynamicGraphTracker tracker(4);
  const Graph g = path_graph(4);
  const GraphDiff diff = tracker.advance(g, 1);
  EXPECT_EQ(diff.inserted.size(), 3u);  // E_0 = ∅
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_EQ(tracker.topological_changes(), 3u);
  EXPECT_EQ(tracker.deletions(), 0u);
}

TEST(DynamicTracker, DiffsAcrossRounds) {
  DynamicGraphTracker tracker(4);
  Graph g1(4);
  g1.add_edge(0, 1);
  g1.add_edge(1, 2);
  tracker.advance(g1, 1);

  Graph g2(4);
  g2.add_edge(1, 2);  // kept
  g2.add_edge(2, 3);  // inserted
  const GraphDiff diff = tracker.advance(g2, 2);
  ASSERT_EQ(diff.inserted.size(), 1u);
  EXPECT_EQ(diff.inserted[0], edge_key(2, 3));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], edge_key(0, 1));
  EXPECT_EQ(tracker.topological_changes(), 3u);
  EXPECT_EQ(tracker.deletions(), 1u);
}

TEST(DynamicTracker, DeletionsNeverExceedInsertions) {
  Rng rng(17);
  DynamicGraphTracker tracker(16);
  for (Round r = 1; r <= 50; ++r) {
    const Graph g = connected_erdos_renyi(16, 0.15, rng);
    tracker.advance(g, r);
    EXPECT_LE(tracker.deletions(), tracker.topological_changes());
  }
}

/// since of the arc u->v in the plane's last view; kNoRound when absent.
Round since_of(const RoundGraphPlane& plane, NodeId u, NodeId v) {
  const std::size_t arc = plane.view().arc_index(u, v);
  if (arc == kNoArc) return kNoRound;
  return plane.since(u)[arc - plane.view().arc_begin(u)];
}

TEST(DynamicTracker, InsertionRoundAndReinsertion) {
  // An edge's latest insertion round is the since of its arcs on a plane
  // that saw every round; its completed lifetimes are the validator's.
  DynamicGraphTracker tracker(3);
  RoundGraphPlane plane(3, nullptr, /*track_since=*/true);
  StabilityValidator stability(1);
  Graph with(3), without(3);
  with.add_edge(0, 1);
  with.add_edge(1, 2);
  without.add_edge(1, 2);
  without.add_edge(0, 2);
  const auto round = [&](const Graph& g, Round r) {
    tracker.advance(g, r);
    plane.ingest(g, r);
    stability.observe(g, r);
  };

  round(with, 1);
  EXPECT_EQ(since_of(plane, 0, 1), 1u);
  EXPECT_EQ(since_of(plane, 1, 0), 1u);
  round(without, 2);
  EXPECT_EQ(since_of(plane, 0, 1), kNoRound);  // removed
  EXPECT_EQ(since_of(plane, 1, 2), 1u);        // kept
  round(with, 3);
  EXPECT_EQ(since_of(plane, 0, 1), 3u);  // re-inserted fresh
  // {0,1} was present exactly 1 round before removal.
  EXPECT_EQ(stability.min_lifetime(), 1u);
  // TC: r1 inserts 2, r2 inserts {0,2}, r3 re-inserts {0,1}.
  EXPECT_EQ(tracker.topological_changes(), 4u);
}

TEST(DynamicTracker, MinLifetimeTracksShortestInterval) {
  StabilityValidator stability(1);
  Graph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  stability.observe(a, 1);
  EXPECT_EQ(stability.min_lifetime(), kNoRound);  // nothing removed yet
  stability.observe(a, 2);
  stability.observe(b, 3);  // {1,2} lived rounds 1-2 => lifetime 2
  EXPECT_EQ(stability.min_lifetime(), 2u);
}

TEST(DynamicTrackerDeath, RoundsMustBeConsecutive) {
  DynamicGraphTracker tracker(3);
  tracker.advance(path_graph(3), 1);
  EXPECT_DEATH(tracker.advance(path_graph(3), 3), "DG_CHECK");
}

TEST(DynamicTrackerDeath, NodeCountMustMatch) {
  DynamicGraphTracker tracker(3);
  EXPECT_DEATH(tracker.advance(path_graph(4), 1), "DG_CHECK");
}

TEST(DynamicTracker, ViewAdvanceMatchesGraphAdvance) {
  // The CSR-view overload (engine hot path) and the Graph overload must
  // produce identical diffs and statistics on the same round sequence.
  Rng rng(21);
  std::vector<Graph> rounds;
  rounds.push_back(random_connected_with_edges(16, 30, rng));
  for (int i = 0; i < 6; ++i) {
    Graph g = rounds.back();
    for (int cut = 0; cut < 3; ++cut) {
      const std::vector<EdgeKey> edges = g.sorted_edges();
      const auto [u, v] = edge_endpoints(edges[rng.next_below(edges.size())]);
      g.remove_edge(u, v);
    }
    connect_components(g, rng);
    rounds.push_back(std::move(g));
  }

  DynamicGraphTracker by_graph(16);
  DynamicGraphTracker by_view(16);
  RoundGraphView view;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const GraphDiff a = by_graph.advance(rounds[r], static_cast<Round>(r + 1));
    view.rebuild(rounds[r]);
    const GraphDiff& b = by_view.advance(view, static_cast<Round>(r + 1));
    EXPECT_EQ(a.inserted, b.inserted) << "round " << r + 1;
    EXPECT_EQ(a.removed, b.removed) << "round " << r + 1;
  }
  EXPECT_EQ(by_graph.topological_changes(), by_view.topological_changes());
  EXPECT_EQ(by_graph.deletions(), by_view.deletions());
}

}  // namespace
}  // namespace dyngossip
