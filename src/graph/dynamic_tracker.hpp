// Dynamic-graph bookkeeping from scratch: edge diffs and TC(E).
//
// The paper's cost model (Definition 1.3) charges the adversary one unit per
// *edge insertion*: TC(E) = Σ_r |E+_r| with E_0 = ∅, and observes that the
// number of deletions is bounded by the number of insertions.  The tracker
// consumes the round-graph sequence an adversary produces, computes the
// per-round insertion/deletion sets by merging each round's full sorted
// edge list against the previous one, and accumulates TC and deletions.
// It is the from-scratch reference for the diffs the engines take from the
// round graph plane (engine/graph_plane.hpp).  Edge lifetimes are
// StabilityValidator's (graph/stability.hpp).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"

namespace dyngossip {

/// Observes the sequence G_1, G_2, ... and accumulates the model's
/// adversary-cost statistics.
class DynamicGraphTracker {
 public:
  /// Tracker for an n-node network; the implicit predecessor graph is G_0=∅.
  explicit DynamicGraphTracker(std::size_t n) : n_(n) {}

  /// Ingests round r's graph (rounds must be consumed in order, from 1).
  /// Returns the diff against the previous round.
  GraphDiff advance(const Graph& g, Round r);

  /// Snapshot variant: ingests round r's CSR view and returns a reference
  /// to an internally reused diff (valid until the next advance).
  const GraphDiff& advance(const RoundGraphView& view, Round r);

  /// Σ_r |E+_r| so far — the adversary's topological-change budget TC(E).
  [[nodiscard]] std::uint64_t topological_changes() const noexcept { return tc_; }

  /// Σ_r |E-_r| so far (always <= topological_changes()).
  [[nodiscard]] std::uint64_t deletions() const noexcept { return deletions_; }

  /// Number of rounds ingested.
  [[nodiscard]] Round rounds() const noexcept { return last_round_; }

 private:
  /// Shared merge step: `edges_` holds the new round's canonical sorted
  /// edge list; afterwards live_ does.
  void merge_round(Round r);

  std::size_t n_;
  std::vector<EdgeKey> live_;   ///< the previous round's edges, sorted
  std::vector<EdgeKey> edges_;  ///< the new round's edges, sorted
  GraphDiff diff_;              ///< reused by the view-based advance
  std::uint64_t tc_ = 0;
  std::uint64_t deletions_ = 0;
  Round last_round_ = 0;
};

}  // namespace dyngossip
