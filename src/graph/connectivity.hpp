// Connectivity queries and repairs on round graphs.
//
// The model requires every round graph G_r (r >= 1) to be connected; every
// adversary uses these helpers to verify or restore that property, and the
// Section-2 lower-bound adversary uses component counting on the free-edge
// graph F(r).  The static baseline uses BFS trees for its spanning-tree
// dissemination stage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"

namespace dyngossip {

/// Component labelling of a graph.
struct ComponentInfo {
  /// labels[v] in [0, count) identifies v's component.
  std::vector<std::size_t> labels;
  /// Number of connected components.
  std::size_t count = 0;
  /// One representative node per component, indexed by label.
  std::vector<NodeId> representatives;
};

// The Graph-based helpers below are the only code that sets a Graph's
// memoised connectivity verdict (Graph::connectivity_verdict), and only
// after they have established it; is_connected and the checker return a
// current verdict without re-checking.

/// Computes connected components (union-find based).
[[nodiscard]] ComponentInfo connected_components(const Graph& g);

/// True iff g is connected (vacuously true for n <= 1).
[[nodiscard]] bool is_connected(const Graph& g);

/// Reusable-buffer connectivity check: one BFS, allocation-free once the
/// buffers have grown to the node count.  The round graph plane checks its
/// CSR snapshot with one; the churn adversaries check their working Graph
/// with one before deciding whether a repair is needed.
///
/// Checking the same Graph again is incremental: the checker keeps the BFS
/// spanning tree of the last graph it found connected and reads the graph's
/// edit journal (Graph::watch / edits_since).  If no tree edge was removed
/// since, the tree still spans the graph.  Otherwise each detached root is
/// hung on a neighbor a short tree path away from node 0; only subtrees left
/// over are relabelled in O(n) and re-attached through their members'
/// neighbors, and one that cannot be is a disconnected graph.  Any other
/// case runs the full BFS.
class ConnectivityChecker {
 public:
  /// True iff the snapshot's graph is connected (vacuously true, n <= 1).
  [[nodiscard]] bool is_connected(const RoundGraphView& view);

  /// True iff g is connected (vacuously true, n <= 1); memoises the verdict
  /// on g.
  [[nodiscard]] bool is_connected(const Graph& g);

  /// Detached subtrees hung back by the bounded walk, and incremental
  /// checks that fell back to the O(n) relabel, so far.
  [[nodiscard]] std::uint64_t local_reattaches() const { return local_reattaches_; }
  [[nodiscard]] std::uint64_t relabels() const { return relabels_; }

 private:
  /// Longest parent chain the local re-attach walks from a candidate.
  static constexpr std::size_t kMaxWalk = 16;

  /// BFS from node 0 over `neighbors(v)`, recording the tree in parent_;
  /// true iff all n nodes are reached.
  template <typename Neighbors>
  bool reaches_all(std::size_t n, Neighbors&& neighbors);

  /// Repairs parent_ (a spanning tree of g before `edits`) into a spanning
  /// tree of g; false when g is disconnected.
  bool respan(const Graph& g, std::span<const EdgeKey> edits);

  std::vector<NodeId> frontier_;
  /// BFS tree (parent_[0] == 0); on the Graph path, the spanning tree of
  /// the graph `identity_` at `version_` while tree_valid_.
  std::vector<NodeId> parent_;
  bool tree_valid_ = false;
  std::uint64_t identity_ = 0;
  std::uint64_t version_ = 0;
  // respan() scratch: per node, the root of its detached subtree (0: the
  // root's part; kNoNode between calls); per detached root, the next
  // member of its subtree.
  std::vector<NodeId> label_;
  std::vector<NodeId> next_member_;
  std::vector<NodeId> detached_;  ///< roots of the detached subtrees
  std::uint64_t local_reattaches_ = 0;
  std::uint64_t relabels_ = 0;
};

/// Adds the minimum number of edges (#components - 1) to make g connected.
/// Components are joined in a chain over uniformly random representatives so
/// repeated repairs do not bias the topology.  Draws from `rng` only when g
/// has more than one component.  Returns the added edges.
std::vector<EdgeKey> connect_components(Graph& g, Rng& rng);

/// BFS spanning tree rooted at `root`.
struct BfsTree {
  /// parent[v]; parent[root] == root; kNoNode for unreachable nodes.
  std::vector<NodeId> parent;
  /// BFS depth; 0 for the root; unreachable nodes have kNoRound-like max.
  std::vector<std::uint32_t> depth;
  /// Nodes in BFS visit order (root first).
  std::vector<NodeId> order;
};

/// Computes a BFS tree (deterministic: neighbors scanned in sorted order,
/// served by a CSR snapshot rather than per-node sorts).
[[nodiscard]] BfsTree bfs_tree(const Graph& g, NodeId root);

/// BFS tree off an existing snapshot (avoids the O(n + m) rebuild when the
/// caller already holds one).
[[nodiscard]] BfsTree bfs_tree(const RoundGraphView& view, NodeId root);

}  // namespace dyngossip
