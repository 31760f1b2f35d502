// Tests for the new/idle/contributive edge classification (Section 3.1).
//
// A node classifies an edge from two facts: the edge's `since` round, which
// the round graph plane keeps per arc and the engine hands to send(), and
// the last round the node learned a new token over it (EdgeClassifier).
// The scenarios below drive a real RoundGraphPlane so that node 0's
// neighbor list follows a script, on the patch path (one graph edited in
// place) and on the rebuild path (a fresh graph every round), and classify
// node 0's edges from the plane's since values.
#include "core/knowledge.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "engine/graph_plane.hpp"

namespace dyngossip {
namespace {

/// Drives a plane so that node 0's round-r neighbors are a scripted list.
/// A hub adjacent to every node keeps each round graph connected (it is
/// also node 0's neighbor; the scripts never list it).
class NodeZeroRounds {
 public:
  static constexpr std::size_t kN = 32;
  static constexpr NodeId kHub = kN - 1;

  explicit NodeZeroRounds(bool patch)
      : patch_(patch), plane_(kN, nullptr, /*track_since=*/true) {}

  /// Ingests round r with node 0 adjacent to exactly `ids` (plus the hub).
  void round(Round r, const std::vector<NodeId>& ids) {
    if (!patch_ || !graph_) {
      graph_.emplace(kN);
      for (NodeId v = 0; v < kHub; ++v) graph_->add_edge(v, kHub);
    }
    for (NodeId w = 1; w < kHub; ++w) {
      if (std::find(ids.begin(), ids.end(), w) != ids.end()) {
        graph_->add_edge(0, w);
      } else {
        graph_->remove_edge(0, w);
      }
    }
    plane_.ingest(*graph_, r);
  }

  [[nodiscard]] bool is_neighbor(NodeId w) const { return slot(w).has_value(); }

  /// since of the live edge {0, w}.
  [[nodiscard]] Round since(NodeId w) const {
    const std::optional<std::size_t> i = slot(w);
    EXPECT_TRUE(i.has_value()) << "node " << w << " is not a neighbor";
    return i ? plane_.since(0)[*i] : kNoRound;
  }

  [[nodiscard]] const RoundGraphPlane& plane() const { return plane_; }

 private:
  [[nodiscard]] std::optional<std::size_t> slot(NodeId w) const {
    const std::span<const NodeId> ids = plane_.view().neighbors(0);
    const auto it = std::lower_bound(ids.begin(), ids.end(), w);
    if (it == ids.end() || *it != w) return std::nullopt;
    return static_cast<std::size_t>(it - ids.begin());
  }

  bool patch_;
  RoundGraphPlane plane_;
  std::optional<Graph> graph_;
};

/// Runs `body` once on the patch path and once on the rebuild path.
template <typename Body>
void on_both_paths(Body&& body) {
  for (const bool patch : {true, false}) {
    SCOPED_TRACE(patch ? "patch path" : "rebuild path");
    NodeZeroRounds rounds(patch);
    body(rounds);
  }
}

TEST(EdgeClassifier, EdgeIsNewForExactlyTwoRounds) {
  on_both_paths([](NodeZeroRounds& n0) {
    const EdgeClassifier c;
    const std::vector<NodeId> with{5};
    n0.round(1, with);
    EXPECT_EQ(c.classify(1, 5, n0.since(5)), EdgeClass::kNew);  // inserted in round 1
    n0.round(2, with);
    EXPECT_EQ(c.classify(2, 5, n0.since(5)), EdgeClass::kNew);  // inserted in round r-1
    n0.round(3, with);
    EXPECT_EQ(c.classify(3, 5, n0.since(5)), EdgeClass::kIdle);  // no contribution yet
  });
}

TEST(EdgeClassifier, LearningMakesContributive) {
  on_both_paths([](NodeZeroRounds& n0) {
    EdgeClassifier c;
    const std::vector<NodeId> with{2};
    n0.round(1, with);
    n0.round(2, with);
    c.note_learning_over(2, 2);  // token learned over the edge at end of round 2
    n0.round(3, with);
    EXPECT_EQ(c.classify(3, 2, n0.since(2)), EdgeClass::kContributive);
    n0.round(4, with);
    EXPECT_EQ(c.classify(4, 2, n0.since(2)), EdgeClass::kContributive);  // stays
  });
}

TEST(EdgeClassifier, InFlightTokenCountsAsContribution) {
  on_both_paths([](NodeZeroRounds& n0) {
    const EdgeClassifier c;
    const std::vector<NodeId> with{2};
    n0.round(1, with);
    n0.round(2, with);
    n0.round(3, with);
    EXPECT_EQ(c.classify(3, 2, n0.since(2), /*token_arriving_now=*/false),
              EdgeClass::kIdle);
    EXPECT_EQ(c.classify(3, 2, n0.since(2), /*token_arriving_now=*/true),
              EdgeClass::kContributive);
  });
}

TEST(EdgeClassifier, ReinsertionResetsToNew) {
  on_both_paths([](NodeZeroRounds& n0) {
    EdgeClassifier c;
    const std::vector<NodeId> with{7};
    const std::vector<NodeId> without{};
    n0.round(1, with);
    n0.round(2, with);
    c.note_learning_over(7, 2);
    n0.round(3, with);
    EXPECT_EQ(c.classify(3, 7, n0.since(7)), EdgeClass::kContributive);
    n0.round(4, without);  // edge removed
    EXPECT_FALSE(n0.is_neighbor(7));
    n0.round(5, with);  // re-inserted: new again, contribution cleared
    EXPECT_EQ(n0.since(7), 5u);
    EXPECT_EQ(c.classify(5, 7, n0.since(7)), EdgeClass::kNew);
    n0.round(6, with);
    n0.round(7, with);
    EXPECT_EQ(c.classify(7, 7, n0.since(7)), EdgeClass::kIdle);
  });
}

TEST(EdgeClassifier, TracksMultipleNeighborsIndependently) {
  on_both_paths([](NodeZeroRounds& n0) {
    EdgeClassifier c;
    n0.round(1, {1, 2});
    n0.round(2, {1, 2, 3});  // 3 inserted at round 2
    c.note_learning_over(1, 2);
    n0.round(3, {1, 2, 3});
    EXPECT_EQ(c.classify(3, 1, n0.since(1)), EdgeClass::kContributive);
    EXPECT_EQ(c.classify(3, 2, n0.since(2)), EdgeClass::kIdle);
    EXPECT_EQ(c.classify(3, 3, n0.since(3)), EdgeClass::kNew);
    EXPECT_EQ(n0.since(3), 2u);
    EXPECT_EQ(n0.since(1), 1u);
    EXPECT_EQ(c.last_learning_over(1), 2u);
    EXPECT_EQ(c.last_learning_over(2), 0u);  // never
  });
}

TEST(EdgeClassifierDeath, EdgeFromALaterRoundAborts) {
  const EdgeClassifier c;
  EXPECT_DEATH((void)c.classify(3, 1, 4), "DG_CHECK");
}

TEST(EdgeClassifierDeath, LearningRoundsMustNotGoBack) {
  EdgeClassifier c;
  c.note_learning_over(1, 5);
  c.note_learning_over(1, 5);  // several tokens in one round
  EXPECT_DEATH(c.note_learning_over(1, 4), "DG_CHECK");
}

TEST(EdgeClassifier, ClassNames) {
  EXPECT_STREQ(edge_class_name(EdgeClass::kNew), "new");
  EXPECT_STREQ(edge_class_name(EdgeClass::kIdle), "idle");
  EXPECT_STREQ(edge_class_name(EdgeClass::kContributive), "contributive");
}

TEST(EdgeClassifier, SinceIsAlignedWithTheNeighborIds) {
  // The engine hands send() ids and since as two aligned spans: position i
  // of since belongs to ids[i], and equals the edge's last insertion round.
  on_both_paths([](NodeZeroRounds& n0) {
    n0.round(1, {2, 9});
    n0.round(2, {2, 5, 9});
    n0.round(3, {1, 5, 9});
    const std::span<const NodeId> ids = n0.plane().view().neighbors(0);
    const std::span<const Round> since = n0.plane().since(0);
    ASSERT_EQ(ids.size(), since.size());
    const std::vector<NodeId> want_ids{1, 5, 9, NodeZeroRounds::kHub};
    const std::vector<Round> want_since{3, 2, 1, 1};
    EXPECT_EQ(std::vector<NodeId>(ids.begin(), ids.end()), want_ids);
    EXPECT_EQ(std::vector<Round>(since.begin(), since.end()), want_since);
  });
}

TEST(EdgeClassifier, ReinsertionAmidShiftingNeighborsKeepsRecordsStraight) {
  // Neighbor positions shift every round; state must follow the node id,
  // not the position.  Neighbor 5's record survives while its position
  // moves (insertions below it), and neighbor 3's record resets when 3
  // vanishes for a round and returns.
  on_both_paths([](NodeZeroRounds& n0) {
    EdgeClassifier c;
    n0.round(1, {3, 5});
    n0.round(2, {3, 5});
    c.note_learning_over(5, 2);
    c.note_learning_over(3, 2);
    // 3 vanishes; 1 and 2 appear below 5 (5's position shifts from 1 to 2).
    n0.round(3, {1, 2, 5});
    EXPECT_EQ(c.classify(3, 5, n0.since(5)), EdgeClass::kContributive);  // followed 5
    EXPECT_EQ(c.classify(3, 1, n0.since(1)), EdgeClass::kNew);
    EXPECT_FALSE(n0.is_neighbor(3));
    // 3 returns: new, its contribution history gone.
    n0.round(4, {1, 2, 3, 5});
    EXPECT_EQ(c.classify(4, 3, n0.since(3)), EdgeClass::kNew);
    EXPECT_EQ(n0.since(3), 4u);
    n0.round(5, {1, 2, 3, 5});
    n0.round(6, {1, 2, 3, 5});
    EXPECT_EQ(c.classify(6, 3, n0.since(3)), EdgeClass::kIdle);  // none since return
    EXPECT_EQ(c.classify(6, 5, n0.since(5)), EdgeClass::kContributive);  // persists
  });
}

TEST(EdgeClassifier, InsertionRoundSurvivesManyRounds) {
  on_both_paths([](NodeZeroRounds& n0) {
    n0.round(1, {10});
    for (Round r = 2; r <= 20; ++r) {
      // Churn the surrounding ids every round; 10 stays put.
      n0.round(r, {static_cast<NodeId>(1 + r % 7), 10,
                   static_cast<NodeId>(20 + (r % 5))});
    }
    EXPECT_EQ(n0.since(10), 1u);
    EXPECT_EQ(EdgeClassifier().classify(20, 10, n0.since(10)), EdgeClass::kIdle);
  });
}

}  // namespace
}  // namespace dyngossip
