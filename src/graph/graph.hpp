// Round-graph representation.
//
// The dynamic network model (Section 1.3) is a sequence G_r = (V, E_r) of
// undirected graphs over a fixed node set V.  A Graph object is one round's
// topology: adjacency lists supporting the operations the engines and
// adversaries need — membership tests, degree queries, neighbor iteration,
// and edge-set mutation while an adversary constructs the round.
//
// Storage is adjacency lists only (no hash set): the graphs the paper's
// experiments run are sparse (|E_r| = O(n)), so membership is a short scan
// of the smaller endpoint list, and dropping the per-edge hash nodes makes
// copies and per-round mutation allocation-light.  The read-optimized
// per-round snapshot is RoundGraphView (round_view.hpp).
//
// Two pieces of bookkeeping let a per-round consumer absorb an O(churn)
// change in O(churn) decisions instead of re-deriving the whole edge set:
//   - an edit journal: every successful add_edge/remove_edge bumps a
//     version number and, once a consumer has called watch(), appends its
//     edge key.  The consumer remembers (identity, watch()) and later asks
//     for edits_since(version); graphs nobody watches (generator
//     temporaries, copies) keep no journal.  Construction and wholesale
//     assignment (copy or move) issue a fresh process-unique identity, so a
//     stale (identity, version) pair can never alias a different edge set,
//     not even a new graph at a reused address.  edits_since() refuses a
//     span longer than (n + m) / 8, where an O(n + m) rebuild is cheaper
//     than replaying it, and the journal resets itself once it outgrows
//     n + m entries, which bounds its memory.
//   - a connectivity verdict, memoised by the connectivity helpers
//     (connectivity.hpp) after they have checked.  Removing an edge clears
//     it; adding an edge keeps a "connected" verdict (an insertion cannot
//     disconnect a graph) and clears a "disconnected" one.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dyngossip {

class ConnectivityChecker;
class Rng;
struct ComponentInfo;

/// Undirected simple graph over nodes [0, n).
class Graph {
 public:
  /// Empty graph (the model's G_0).
  explicit Graph(std::size_t n = 0);

  /// Graph with the given edges; duplicates are ignored.
  Graph(std::size_t n, const std::vector<EdgeKey>& edges);

  /// Copies and moves carry the edge set and the connectivity verdict but
  /// never the identity or the journal: the target gets a fresh identity,
  /// and a moved-from graph is left empty under a fresh identity too.
  Graph(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(const Graph& other);
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return adjacency_.size(); }

  /// Number of edges m_r.
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Adds the undirected edge {u, v}; returns true iff it was absent.
  /// Requires u != v and both < n.
  bool add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v}; returns true iff it was present.
  bool remove_edge(NodeId u, NodeId v);

  /// Membership test (scan of the smaller endpoint's adjacency list);
  /// false for out-of-range endpoints.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Degree of v in this round.
  [[nodiscard]] std::size_t degree(NodeId v) const {
    DG_DCHECK(v < adjacency_.size());
    return adjacency_[v].size();
  }

  /// Neighbors of v (unsorted; order is insertion order).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    DG_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }

  /// Neighbors of v sorted ascending (the unicast model hands each node the
  /// IDs of its round-r neighbors; a canonical order keeps runs
  /// deterministic).  Allocates; the per-round engines read sorted spans off
  /// a RoundGraphView instead.
  [[nodiscard]] std::vector<NodeId> sorted_neighbors(NodeId v) const;

  /// Visits every edge once as a canonical key, grouped by the lower
  /// endpoint in increasing order (within a node, insertion order).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (NodeId u = 0; u < adjacency_.size(); ++u) {
      for (const NodeId v : adjacency_[u]) {
        if (v > u) fn(edge_key(u, v));
      }
    }
  }

  /// All edges as canonical keys, unsorted (lower-endpoint grouped).
  [[nodiscard]] std::vector<EdgeKey> edges() const;

  /// All edges as a sorted vector (deterministic iteration for tests).
  [[nodiscard]] std::vector<EdgeKey> sorted_edges() const;

  /// Process-unique identity of this edge-set lineage (see file comment).
  [[nodiscard]] std::uint64_t identity() const noexcept { return identity_; }

  /// Number of successful mutations since construction (monotone).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The current version, for a later edits_since(); from the first call on,
  /// mutations are journaled (until the next wholesale assignment).
  [[nodiscard]] std::uint64_t watch() const noexcept {
    watched_.store(true, std::memory_order_relaxed);
    return version_;
  }

  /// Edge keys touched by the mutations after `version`, oldest first (one
  /// entry per successful add_edge/remove_edge; a key's entries alternate
  /// insert/remove).  nullopt when the journal does not reach back to
  /// `version` (it was reset, or `version` did not come from watch()), or
  /// when there are more than (n + m) / 8 of them: rebuild instead.
  [[nodiscard]] std::optional<std::span<const EdgeKey>> edits_since(
      std::uint64_t version) const;

  /// Memoised connectivity verdict: true/false when a connectivity helper
  /// checked the current edge set, nullopt when none has since the last
  /// invalidating mutation.
  [[nodiscard]] std::optional<bool> connectivity_verdict() const noexcept;

 private:
  friend class ConnectivityChecker;
  friend bool is_connected(const Graph& g);
  friend ComponentInfo connected_components(const Graph& g);
  friend std::vector<EdgeKey> connect_components(Graph& g, Rng& rng);

  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kConnected = 1;
  static constexpr std::uint8_t kDisconnected = 2;

  /// Records a successful mutation of `key` in the journal.
  void journal(EdgeKey key);

  /// Issues a fresh identity, unwatched, with an empty journal starting at
  /// the current version (construction and wholesale assignment).
  void renew_identity() noexcept;

  /// Stores a verdict a connectivity helper has just established.
  void memo_connected(bool connected) const noexcept {
    connectivity_.store(connected ? kConnected : kDisconnected,
                        std::memory_order_relaxed);
  }

  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t num_edges_ = 0;
  std::uint64_t identity_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t journal_base_ = 0;  ///< version before journal_[0]
  std::vector<EdgeKey> journal_;
  mutable std::atomic<bool> watched_{false};  ///< set by watch()
  /// Atomic so concurrent const checks of one shared graph stay race-free.
  mutable std::atomic<std::uint8_t> connectivity_{kUnknown};
};

}  // namespace dyngossip
