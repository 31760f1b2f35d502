// Static spanning-tree dissemination baseline (Section 1).
//
// On a static network one can build a spanning tree (up to Θ(n²) messages in
// dense KT0 graphs) and pipeline the k tokens over its n-1 edges, for
// O(n² + nk) total messages, i.e. O(n²/k + n) amortized — the benchmark the
// paper's dynamic bounds are measured against (optimal O(n) amortized once
// k = Ω(n)).
//
// Distributed implementation over the unicast engine (static adversary
// required; the protocol checks its neighborhood never changes):
//   rounds 1..n      — BFS tree construction: the root floods Join control
//                      messages; first Join fixes the parent; children
//                      identify themselves with Accept.
//   rounds n+1..     — dissemination: every token floods over the tree away
//                      from its origin — each node forwards each token to
//                      every tree neighbor except the one that delivered
//                      it, FIFO-pipelined at one token per tree edge per
//                      round.  Each token crosses each of the n-1 tree
//                      edges exactly once, so dissemination costs exactly
//                      k(n-1) token messages (single- and multi-source
//                      alike) on top of the O(m) construction messages.
#pragma once

#include <memory>
#include <vector>

#include "common/knowledge_set.hpp"
#include "core/tokens.hpp"
#include "engine/unicast_engine.hpp"

namespace dyngossip {

/// Static parameters of a spanning-tree run.
struct SpanningTreeConfig {
  std::size_t n = 0;    ///< nodes
  TokenSpacePtr space;  ///< token labelling (any initial distribution)
  NodeId root = 0;      ///< tree root (known to all, e.g. minimum id)
};

/// Per-node state machine of the spanning-tree baseline.
class SpanningTreeNode final : public UnicastAlgorithm {
 public:
  SpanningTreeNode(NodeId self, const SpanningTreeConfig& cfg,
                   const KnowledgeSet& initial_tokens);

  void send(Round r, NeighborView neighbors, Outbox& out) override;
  void on_receive(Round r, NodeId from, const Message& m) override;

  /// Parent in the BFS tree (kNoNode before joining; root's parent = root).
  [[nodiscard]] NodeId parent() const noexcept { return parent_; }

  /// Children discovered via Accept messages.
  [[nodiscard]] const std::vector<NodeId>& children() const noexcept {
    return children_;
  }

  /// Builds the n node instances with the space's initial distribution.
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all(
      const SpanningTreeConfig& cfg);

 private:
  NodeId self_;
  SpanningTreeConfig cfg_;
  KnowledgeSet tokens_;
  NodeId parent_ = kNoNode;
  bool sent_accept_ = false;
  bool flooded_join_ = false;
  std::vector<NodeId> children_;
  /// Tree neighbors (parent first if non-root, then children) with a FIFO
  /// cursor each into `sequence_`.
  std::vector<NodeId> tree_neighbors_;
  std::vector<std::size_t> cursor_;
  /// Token sequence in local arrival order: initial tokens, then receipts.
  std::vector<TokenId> sequence_;
  /// provenance_[t]: the tree neighbor that delivered t (kNoNode if initial).
  std::vector<NodeId> provenance_;
  std::vector<NodeId> first_neighbors_;  ///< static-topology guard
};

}  // namespace dyngossip
