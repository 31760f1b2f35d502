// Differential tests for the round graph plane (engine/graph_plane.hpp) and
// the Graph edit journal it reads.
//
// Every round, the plane's state must equal what the from-scratch path
// computes for the same graph: a fresh RoundGraphView plus a
// DynamicGraphTracker merging the full edge set.  Compared are the neighbor
// spans, arc_begin and arc_index of every arc (fault fates hash arc
// indices), the round's GraphDiff and the TC and deletions summed from it,
// any memoised connectivity verdict, and the per-arc since round (each
// edge's latest insertion round) against a from-scratch replay (an arc
// present in the round before keeps its value, any other arc gets the
// current round).
// The graph sequences come from random edit scripts (adds, removes,
// cut-then-re-add, wholesale assignment, journal overflow, a new graph at a
// reused address) and from every registered adversary family driving real
// engine trials.
#include "engine/graph_plane.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/generators.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

void expect_same_view(const RoundGraphView& got, const RoundGraphView& want,
                      Round r) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << "round " << r;
  ASSERT_EQ(got.num_arcs(), want.num_arcs()) << "round " << r;
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    ASSERT_EQ(got.arc_begin(v), want.arc_begin(v)) << "round " << r << " node " << v;
    const std::span<const NodeId> a = got.neighbors(v);
    const std::span<const NodeId> b = want.neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << "round " << r << " node " << v;
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(got.arc_index(v, b[i]), want.arc_begin(v) + i)
          << "round " << r << " arc " << v << "->" << b[i];
    }
  }
}

/// A plane and the from-scratch reference, fed the same graph each round.
class PlaneCheck {
 public:
  explicit PlaneCheck(std::size_t n)
      : plane_(n, nullptr, /*track_since=*/true), reference_(n) {}

  void step(const Graph& g, Round r) {
    const GraphDiff& got = plane_.ingest(g, r);
    const RoundGraphView fresh(g);
    const GraphDiff& want = reference_.advance(fresh, r);
    expect_same_view(plane_.view(), fresh, r);
    EXPECT_EQ(got.inserted, want.inserted) << "round " << r;
    EXPECT_EQ(got.removed, want.removed) << "round " << r;
    tc_ += got.inserted.size();
    deletions_ += got.removed.size();
    EXPECT_EQ(tc_, reference_.topological_changes());
    EXPECT_EQ(deletions_, reference_.deletions());
    EXPECT_EQ(plane_.round(), reference_.rounds());
    if (const std::optional<bool> verdict = g.connectivity_verdict()) {
      ConnectivityChecker checker;
      EXPECT_EQ(*verdict, checker.is_connected(fresh)) << "round " << r;
    }
    check_since(fresh, r);
  }

  [[nodiscard]] const RoundGraphPlane& plane() const { return plane_; }

 private:
  /// Replays since from scratch over the arcs of `fresh` (G_r).
  void check_since(const RoundGraphView& fresh, Round r) {
    std::map<std::uint64_t, Round> now;
    for (NodeId v = 0; v < fresh.num_nodes(); ++v) {
      const std::span<const NodeId> ids = fresh.neighbors(v);
      const std::span<const Round> got = plane_.since(v);
      ASSERT_EQ(got.size(), ids.size()) << "round " << r << " node " << v;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::uint64_t arc = (std::uint64_t{v} << 32) | ids[i];
        const auto before = since_.find(arc);
        const Round want = before != since_.end() ? before->second : r;
        now.emplace(arc, want);
        ASSERT_EQ(got[i], want) << "round " << r << " arc " << v << "->" << ids[i];
      }
    }
    since_.swap(now);
  }

  RoundGraphPlane plane_;
  DynamicGraphTracker reference_;
  std::uint64_t tc_ = 0;         ///< Σ |inserted| over the plane's diffs
  std::uint64_t deletions_ = 0;  ///< Σ |removed|
  std::map<std::uint64_t, Round> since_;  ///< oracle: G_{r-1}'s arcs
};

/// Toggles `count` uniformly random node pairs of g.
void toggle_pairs(Graph& g, std::size_t count, Rng& rng) {
  const std::size_t n = g.num_nodes();
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    auto v = static_cast<NodeId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    if (!g.remove_edge(u, v)) g.add_edge(u, v);
  }
}

/// Cuts a random live edge and re-adds it (net: no change), then adds a
/// random absent edge and cuts it again (net: no change).
void cut_and_restore(Graph& g, Rng& rng) {
  const std::vector<EdgeKey> edges = g.sorted_edges();
  if (!edges.empty()) {
    const auto [u, v] = edge_endpoints(edges[rng.next_below(edges.size())]);
    EXPECT_TRUE(g.remove_edge(u, v));
    EXPECT_TRUE(g.add_edge(u, v));
  }
  const auto a = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  const auto b = static_cast<NodeId>((a + 1 + rng.next_below(g.num_nodes() - 1)) %
                                     g.num_nodes());
  if (g.add_edge(a, b)) {
    EXPECT_TRUE(g.remove_edge(a, b));
  }
}

/// Restores connectivity when an edit script broke it.  The test's own
/// check runs on a copy, so a still-connected g keeps no verdict and the
/// plane has to check it itself.
void keep_connected(Graph& g, Rng& rng) {
  const Graph probe = g;
  if (!is_connected(probe)) connect_components(g, rng);
}

TEST(GraphJournal, RecordsSuccessfulEditsOnceWatched) {
  Graph g(64);
  EXPECT_TRUE(g.add_edge(4, 5));  // unwatched: versioned, not journaled
  EXPECT_FALSE(g.edits_since(0).has_value());
  const std::uint64_t v0 = g.watch();
  EXPECT_EQ(v0, 1u);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // already present: not journaled
  EXPECT_TRUE(g.add_edge(2, 3));
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(1, 5));  // absent: not journaled
  const auto edits = g.edits_since(v0);
  ASSERT_TRUE(edits.has_value());
  EXPECT_EQ(std::vector<EdgeKey>(edits->begin(), edits->end()),
            (std::vector<EdgeKey>{edge_key(0, 1), edge_key(2, 3), edge_key(0, 1)}));
  EXPECT_EQ(g.version(), v0 + 3);
  EXPECT_TRUE(g.edits_since(g.version())->empty());
  EXPECT_FALSE(g.edits_since(g.version() + 1).has_value());
}

TEST(GraphJournal, CopiesAndAssignmentsGetFreshIdentities) {
  Graph a = path_graph(5);
  const std::uint64_t id = a.identity();
  const Graph b = a;
  EXPECT_NE(b.identity(), id);
  EXPECT_EQ(b.sorted_edges(), a.sorted_edges());
  Graph c(5);
  const std::uint64_t c_id = c.identity();
  c = a;
  EXPECT_NE(c.identity(), c_id);
  EXPECT_NE(c.identity(), id);
  Graph d = std::move(c);
  EXPECT_NE(d.identity(), c.identity());
  EXPECT_EQ(c.num_edges(), 0u);  // moved-from: empty, under a new identity
  EXPECT_EQ(a.identity(), id);   // the source of a copy keeps its own
  // A reassigned graph starts unwatched: its old version is unreachable.
  Graph e = path_graph(5);
  const std::uint64_t seen = e.watch();
  e.remove_edge(0, 1);
  EXPECT_EQ(e.edits_since(seen)->size(), 1u);
  e = path_graph(5);
  e.remove_edge(0, 1);
  EXPECT_FALSE(e.edits_since(e.version() - 1).has_value());
}

TEST(GraphJournal, RefusesLongSpansAndResetsPastNPlusM) {
  Graph g(64, path_graph(64).sorted_edges());  // n + m = 127
  const std::uint64_t v0 = g.watch();
  for (int i = 0; i < 7; ++i) {  // 14 edits: within (n + m) / 8
    g.remove_edge(3, 4);
    g.add_edge(3, 4);
  }
  EXPECT_EQ(g.edits_since(v0)->size(), 14u);
  g.remove_edge(3, 4);
  g.add_edge(3, 4);  // 16 edits: a rebuild is cheaper
  EXPECT_FALSE(g.edits_since(v0).has_value());
  EXPECT_EQ(g.edits_since(g.version() - 2)->size(), 2u);

  while (g.version() - v0 < 124) {
    g.remove_edge(3, 4);
    g.add_edge(3, 4);
  }
  const std::uint64_t recent = g.version();
  for (int i = 0; i < 3; ++i) {  // the journal passes n + m entries: reset
    g.remove_edge(3, 4);
    g.add_edge(3, 4);
  }
  EXPECT_FALSE(g.edits_since(recent).has_value());
  EXPECT_EQ(g.edits_since(g.version() - 1)->size(), 1u);
}

TEST(GraphConnectivityMemo, HelpersSetItAndMutationsClearIt) {
  Graph g = path_graph(4);
  EXPECT_FALSE(g.connectivity_verdict().has_value());
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.connectivity_verdict(), std::optional<bool>(true));
  g.add_edge(0, 3);  // an insertion cannot disconnect
  EXPECT_EQ(g.connectivity_verdict(), std::optional<bool>(true));
  g.remove_edge(1, 2);
  EXPECT_FALSE(g.connectivity_verdict().has_value());
  g.remove_edge(0, 3);
  ConnectivityChecker checker;
  EXPECT_FALSE(checker.is_connected(g));
  EXPECT_EQ(g.connectivity_verdict(), std::optional<bool>(false));
  g.add_edge(0, 2);  // may or may not reconnect: verdict dropped
  EXPECT_FALSE(g.connectivity_verdict().has_value());
  Rng rng(1);
  g.remove_edge(0, 2);
  EXPECT_EQ(connect_components(g, rng).size(), 1u);
  EXPECT_EQ(g.connectivity_verdict(), std::optional<bool>(true));
  EXPECT_EQ(Graph(g).connectivity_verdict(), std::optional<bool>(true));
}

TEST(RoundGraphView, PatchEqualsRebuild) {
  Rng rng(5);
  Graph g = random_connected_with_edges(40, 120, rng);
  RoundGraphView patched(g);
  for (int round = 0; round < 50; ++round) {
    const std::vector<EdgeKey> before = g.sorted_edges();
    toggle_pairs(g, 1 + rng.next_below(30), rng);
    const std::vector<EdgeKey> after = g.sorted_edges();
    GraphDiff diff;
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(diff.inserted));
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(diff.removed));
    patched.patch(diff.inserted, diff.removed);
    expect_same_view(patched, RoundGraphView(g), static_cast<Round>(round));
  }
}

TEST(RoundGraphPlane, MatchesFromScratchUnderRandomEditScripts) {
  std::uint64_t patched = 0;
  std::uint64_t rounds = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    const std::size_t n = 16 + rng.next_below(32);
    std::optional<Graph> slot;
    slot.emplace(random_connected_with_edges(n, 2 * n, rng));
    PlaneCheck check(n);
    for (Round r = 1; r <= 60; ++r) {
      switch (rng.next_below(10)) {
        case 0:  // untouched round
          break;
        case 1:  // wholesale assignment
          *slot = random_connected_with_edges(n, n + rng.next_below(2 * n), rng);
          break;
        case 2: {  // a new graph at the old one's address
          const Graph* before = &*slot;
          const std::uint64_t old_id = slot->identity();
          slot.reset();
          slot.emplace(random_connected_with_edges(n, 2 * n, rng));
          EXPECT_EQ(&*slot, before);
          EXPECT_NE(slot->identity(), old_id);
          break;
        }
        case 3:  // more edits than edges: the journal resets mid-round
          toggle_pairs(*slot, 3 * slot->num_edges() + 1, rng);
          break;
        case 4:
          cut_and_restore(*slot, rng);
          break;
        default:  // churn, mostly within the patchable span
          toggle_pairs(*slot, 1 + rng.next_below(n / 8), rng);
          if (rng.bernoulli(0.5)) cut_and_restore(*slot, rng);
          break;
      }
      keep_connected(*slot, rng);
      check.step(*slot, r);
      if (::testing::Test::HasFatalFailure()) return;
    }
    patched += check.plane().patched_rounds();
    rounds += 60;
  }
  // Both paths ran, the patch path in most rounds.
  EXPECT_GT(patched, rounds / 2);
  EXPECT_LT(patched, rounds);
}

TEST(RoundGraphPlane, RestartSinceStampsTheNextRoundOnBothPaths) {
  // A later engine phase shares the plane: the diff continues from the
  // last round, but since restarts at the phase's first round.
  for (const bool patch : {true, false}) {
    SCOPED_TRACE(patch ? "patch path" : "rebuild path");
    Rng rng(3);
    Graph g = random_connected_with_edges(12, 24, rng);
    RoundGraphPlane plane(12, nullptr, /*track_since=*/true);
    DynamicGraphTracker reference(12);
    plane.ingest(g, 1);
    reference.advance(g, 1);
    toggle_pairs(g, 3, rng);
    keep_connected(g, rng);
    plane.restart_since();
    const Graph copy = g;  // a new identity: the rebuild path
    const Graph& next = patch ? g : copy;
    const GraphDiff& diff = plane.ingest(next, 2);
    const GraphDiff& want = reference.advance(next, 2);
    EXPECT_EQ(diff.inserted, want.inserted);
    EXPECT_EQ(diff.removed, want.removed);
    EXPECT_EQ(plane.patched_rounds(), patch ? 1u : 0u);
    for (NodeId v = 0; v < 12; ++v) {
      for (const Round since : plane.since(v)) EXPECT_EQ(since, 2u);
    }
  }
}

TEST(RoundGraphPlaneDeathTest, RoundsMustBeConsecutive) {
  const Graph g = path_graph(4);
  RoundGraphPlane plane(4);
  plane.ingest(g, 1);
  EXPECT_DEATH(plane.ingest(g, 3), "DG_CHECK");
}

TEST(RoundGraphPlaneDeathTest, PatchedRoundThatDisconnectsAborts) {
  Graph g = path_graph(4);
  RoundGraphPlane plane(4);
  plane.ingest(g, 1);
  g.remove_edge(1, 2);
  EXPECT_DEATH(plane.ingest(g, 2), "DG_CHECK");
}

/// Forwards every round to `inner` and cross-checks the plane against the
/// from-scratch path on the graph it returns.
class CheckedSchedule final : public Adversary {
 public:
  explicit CheckedSchedule(Adversary& inner)
      : inner_(inner), check_(inner.num_nodes()) {}
  [[nodiscard]] std::size_t num_nodes() const override { return inner_.num_nodes(); }
  [[nodiscard]] const Graph& broadcast_round(const BroadcastRoundView& view) override {
    const Graph& g = inner_.broadcast_round(view);
    check_.step(g, view.round);
    return g;
  }
  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) override {
    const Graph& g = inner_.unicast_round(view);
    check_.step(g, view.round);
    return g;
  }
  [[nodiscard]] std::uint64_t patched_rounds() const {
    return check_.plane().patched_rounds();
  }

 private:
  Adversary& inner_;
  PlaneCheck check_;
};

class EveryFamily : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 16;

  void SetUp() override {
    path_ = ::testing::TempDir() + "graph_plane_test_trace.dgt";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    BinaryTraceWriter writer(out, kN, /*seed=*/3, "test");
    ChurnConfig cc;
    cc.n = kN;
    cc.target_edges = 32;
    cc.churn_per_round = 3;
    cc.seed = 3;
    ChurnAdversary source(cc);
    record_schedule(source, /*rounds=*/60, writer);
    writer.finish();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Runs `algo` against `adversary` on the checked schedule; returns the
  /// number of rounds the plane patched.
  std::uint64_t run(const std::string& algo, const std::string& adversary,
                    std::uint64_t seed) {
    AdversaryBuildContext bctx;
    bctx.n = kN;
    bctx.seed = seed;
    bctx.k = 8;
    std::vector<KnowledgeSet> init(kN, KnowledgeSet(8));
    for (TokenId t = 0; t < 8; ++t) init[0].set(t);
    bctx.initial_knowledge = &init;
    const std::unique_ptr<Adversary> inner =
        AdversaryRegistry::global().build(AdversarySpec::parse(adversary), bctx);
    CheckedSchedule schedule(*inner);
    AlgoBuildContext ctx;
    ctx.n = kN;
    ctx.k = 8;
    ctx.sources = 1;
    ctx.cap = 120;
    ctx.seed = seed;
    (void)run_algo(AlgoSpec::parse(algo), ctx, schedule);
    return schedule.patched_rounds();
  }

  std::string path_;
};

TEST_F(EveryFamily, PlaneMatchesFromScratchOnEveryRegisteredSchedule) {
  const std::vector<std::string> schedules = {
      "static:graph=gnp",    "churn:",           "churn:sigma=3,rate=0.2",
      "fresh:",              "sigma:interval=3", "star:",
      "path:",               "cutter:p=0.5",     "trace:file=" + path_,
      "scripted:file=" + path_, "smoothed:base=" + path_ + ",flips=3"};
  std::uint64_t patched = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::string& schedule : schedules) {
      SCOPED_TRACE(schedule + " seed " + std::to_string(seed));
      patched += run("single_source", schedule, seed);
      patched += run("async_push_pull:", schedule, seed);
      // The request cutter is a unicast-model adversary only.
      if (schedule.rfind("cutter", 0) != 0) patched += run("flooding:", schedule, seed);
    }
    SCOPED_TRACE("lb seed " + std::to_string(seed));
    patched += run("flooding:", "lb:", seed);
  }
  EXPECT_GT(patched, 0u);
}

}  // namespace
}  // namespace dyngossip
