// Immutable CSR snapshot of one round graph.
//
// The engines consume each round's topology read-only and in full: every
// node reads its sorted neighbor list, the budget check addresses directed
// edges, connectivity is verified, and the plane diffs the edge set.
// Serving all of that off the mutable Graph costs a per-node allocation and
// sort per round (Graph::sorted_neighbors).  RoundGraphView is the
// flat-snapshot alternative used by graph-processing systems (Ligra-style
// CSR): one O(n + m) rebuild per round into reusable buffers, after which
//   - neighbors(v) is a sorted span (no allocation, no sort),
//   - every directed edge v->w has a dense arc index in [0, 2m) usable as a
//     key into flat per-round arrays (the engines' payload budgets),
//   - edges enumerate in canonical EdgeKey order for O(m) set diffs.
//
// The sortedness falls out of the rebuild for free: scanning source nodes
// in increasing order appends each target list in increasing source order,
// so no comparison sort runs anywhere.
//
// patch() is the incremental alternative to rebuild(): it applies one
// round's net edge diff in place.  The layout stays the canonical one —
// offsets are the prefix sums of the (sorted-block) degrees, exactly what a
// rebuild computes — so every arc index, arc_begin and neighbor span after a
// patch equals the rebuild's.  Consumers key position hashes on arc indices
// (FaultPlan::delivery_fate), so this equality is what keeps payloads
// byte-identical whichever path built the view.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace dyngossip {

/// Sentinel for "no such arc" (arc_index of an absent edge).
inline constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);

/// Per-round topology diff.
struct GraphDiff {
  /// E+_r: edges in round r but not round r-1 (sorted).
  std::vector<EdgeKey> inserted;
  /// E-_r: edges in round r-1 but not round r (sorted).
  std::vector<EdgeKey> removed;
};

/// Read-only CSR (offsets + sorted targets) snapshot of a Graph.
class RoundGraphView {
 public:
  /// Empty view over zero nodes; rebuild() before use.
  RoundGraphView() = default;

  /// View of g's current topology (convenience for one-shot callers; the
  /// engines construct once and rebuild per round).
  explicit RoundGraphView(const Graph& g) { rebuild(g); }

  /// Rebuilds the snapshot from g in O(n + m), reusing internal buffers —
  /// allocation-free once buffers have grown to the high-water mark.
  void rebuild(const Graph& g);

  /// Applies a net edge diff in place: `inserted` must be sorted and absent
  /// from the view, `removed` sorted and present (GraphDiff's contract).
  /// The result equals rebuild() of the patched graph.  O(d log d) for the
  /// d changed edges, plus block copies of the arc array between them and
  /// an O(n) offset sweep.
  ///
  /// `arc_values` (nullable) is a caller-owned per-arc array aligned with
  /// the arc indices (size num_arcs()).  It is patched by the same block
  /// copies: each kept arc's value travels with its target, each inserted
  /// arc gets `fill`, and each removed arc's value is dropped.
  void patch(const std::vector<EdgeKey>& inserted, const std::vector<EdgeKey>& removed,
             std::vector<Round>* arc_values = nullptr, Round fill = 0);

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Number of undirected edges m.
  [[nodiscard]] std::size_t num_edges() const noexcept { return targets_.size() / 2; }

  /// Number of directed arcs (2m); arc indices are dense in [0, num_arcs()).
  [[nodiscard]] std::size_t num_arcs() const noexcept { return targets_.size(); }

  /// Degree of v.
  [[nodiscard]] std::size_t degree(NodeId v) const {
    DG_DCHECK(v < num_nodes_);
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    DG_DCHECK(v < num_nodes_);
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// First arc index of v's neighbor block (arc of v's i-th neighbor is
  /// arc_begin(v) + i).
  [[nodiscard]] std::size_t arc_begin(NodeId v) const {
    DG_DCHECK(v < num_nodes_);
    return offsets_[v];
  }

  /// Dense index of the directed arc v->w, or kNoArc if the edge is absent.
  /// O(log deg(v)) binary search over the sorted neighbor block.
  [[nodiscard]] std::size_t arc_index(NodeId v, NodeId w) const;

  /// Membership test (binary search on the smaller endpoint block).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    DG_DCHECK(u < num_nodes_ && v < num_nodes_);
    return degree(u) <= degree(v) ? arc_index(u, v) != kNoArc
                                  : arc_index(v, u) != kNoArc;
  }

  /// Visits every undirected edge once, in increasing canonical EdgeKey
  /// order (lower endpoint ascending, then higher endpoint ascending).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      for (std::size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const NodeId v = targets_[i];
        if (v > u) fn(edge_key(u, v));
      }
    }
  }

 private:
  std::size_t num_nodes_ = 0;
  std::vector<std::size_t> offsets_;  ///< n + 1 prefix sums
  std::vector<NodeId> targets_;       ///< 2m targets, sorted per source
  std::vector<std::size_t> cursor_;   ///< rebuild scratch (write positions)
  // patch() scratch: directed arc edits packed (source << 32 | target) and
  // the double buffer the patched target array is written into.
  std::vector<std::uint64_t> arc_inserts_;
  std::vector<std::uint64_t> arc_removes_;
  std::vector<std::uint64_t> arc_scratch_;
  std::vector<NodeId> targets_scratch_;
  std::vector<Round> values_scratch_;
};

}  // namespace dyngossip
