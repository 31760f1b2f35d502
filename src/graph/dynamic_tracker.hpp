// Dynamic-graph bookkeeping: edge diffs, TC(E), insertion ages.
//
// The paper's cost model (Definition 1.3) charges the adversary one unit per
// *edge insertion*: TC(E) = Σ_r |E+_r| with E_0 = ∅, and observes that the
// number of deletions is bounded by the number of insertions.  The tracker
// consumes the round-graph sequence an adversary produces, computes the
// per-round insertion/deletion sets, accumulates TC, and remembers each live
// edge's most recent insertion round (needed both for σ-stability validation
// and for the "new edge" classification of Algorithm 1).
//
// Storage is a sorted flat array of (edge, insertion round) pairs: each
// round's diff is one linear merge against the snapshot's canonical edge
// order, reusing scratch buffers — no hashing and no steady-state
// allocation on the engine hot path.  When the caller already knows the
// round's net diff (the round graph plane reads it off the Graph's edit
// journal), apply() skips the full edge-set merge: it binary-searches the
// d changed keys and block-copies the untouched runs between them.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"

namespace dyngossip {

/// Per-round topology diff.
struct GraphDiff {
  /// E+_r: edges in round r but not round r-1 (sorted).
  std::vector<EdgeKey> inserted;
  /// E-_r: edges in round r-1 but not round r (sorted).
  std::vector<EdgeKey> removed;
};

/// Observes the sequence G_1, G_2, ... and accumulates the model's
/// adversary-cost statistics.
class DynamicGraphTracker {
 public:
  /// Tracker for an n-node network; the implicit predecessor graph is G_0=∅.
  explicit DynamicGraphTracker(std::size_t n);

  /// Ingests round r's graph (rounds must be consumed in order, from 1).
  /// Returns the diff against the previous round.
  GraphDiff advance(const Graph& g, Round r);

  /// Engine-path variant: ingests round r's CSR snapshot and returns a
  /// reference to an internally reused diff (valid until the next advance).
  const GraphDiff& advance(const RoundGraphView& view, Round r);

  /// Diff-fed variant: ingests round r as the previous round's edge set
  /// changed by `diff` (sorted; inserted keys absent, removed keys live —
  /// checked).  Returns the same diff, with the same bookkeeping, that
  /// advance() on the resulting graph would.
  const GraphDiff& apply(const GraphDiff& diff, Round r);

  /// Σ_r |E+_r| so far — the adversary's topological-change budget TC(E).
  [[nodiscard]] std::uint64_t topological_changes() const noexcept { return tc_; }

  /// Σ_r |E-_r| so far (always <= topological_changes()).
  [[nodiscard]] std::uint64_t deletions() const noexcept { return deletions_; }

  /// Most recent insertion round of a currently live edge; kNoRound if the
  /// edge is not currently present.
  [[nodiscard]] Round insertion_round(EdgeKey key) const;

  /// Shortest completed presence interval observed so far (in rounds); the
  /// sequence is σ-edge stable iff this is >= σ.  Returns kNoRound when no
  /// edge has been removed yet.
  [[nodiscard]] Round min_completed_lifetime() const noexcept {
    return min_lifetime_;
  }

  /// Number of rounds ingested.
  [[nodiscard]] Round rounds() const noexcept { return last_round_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }

 private:
  struct LiveEdge {
    EdgeKey key;
    Round inserted;
  };

  /// Shared merge step: `edges` must be the new round's canonical sorted
  /// edge list.
  void merge_round(const std::vector<EdgeKey>& edges, Round r);

  /// Accounts one removal of `edge` at round r (deletions, min lifetime).
  void retire(const LiveEdge& edge, Round r);

  std::size_t n_;
  std::vector<LiveEdge> live_;          ///< sorted by key
  std::vector<LiveEdge> live_scratch_;  ///< merge double-buffer
  std::vector<EdgeKey> edge_scratch_;   ///< snapshot edge-list buffer
  GraphDiff diff_;                      ///< reused by the view-based advance
  std::uint64_t tc_ = 0;
  std::uint64_t deletions_ = 0;
  Round min_lifetime_ = kNoRound;
  Round last_round_ = 0;
};

}  // namespace dyngossip
