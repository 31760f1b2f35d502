// Oblivious-Multi-Source-Unicast (Algorithm 2, Section 3.2.2) — phase 1.
//
// Against an oblivious adversary, when the source count s exceeds
// n^{2/3} log^{5/3} n, the algorithm first funnels all tokens to a small set
// of randomly self-elected centers via random walks on the virtual n-regular
// multigraph (each node pads its degree to n with self-loops), then runs
// Multi-Source-Unicast with the centers as sources.
//
// Phase-1 per-round behaviour of a node u holding walking tokens:
//  - centers announce themselves once per distinct neighbor (one O(log n)-
//    bit control message), and tokens that reach a center stop there;
//  - low-degree u (d(u) < γ = n·log n / f): each held token independently
//    takes one lazy-walk step — with probability d(u)/n it crosses a
//    uniformly random incident edge (unless that edge already carried a
//    walk token from u this round: congestion keeps it passive), otherwise
//    it traverses a self-loop (a virtual step, free of message cost);
//  - high-degree u (d(u) >= γ): u sends one held token to each known
//    neighboring center (w.h.p. a high-degree node has one).
//
// NOTE on the paper's pseudocode: Algorithm 2 line 8 says "with probability
// 1/d(u)", but the text analysis defines the walk on the virtual n-regular
// multigraph, i.e. move with probability d(u)/n.  We implement the text
// version and expose the pseudocode variant behind a flag (see DESIGN.md).
//
// Phase orchestration (phase switch, center election, the phase-2
// relabelled TokenSpace, metric merging) lives in sim/simulator.hpp.
#pragma once

#include <memory>
#include <vector>

#include "common/knowledge_set.hpp"
#include "common/rng.hpp"
#include "engine/unicast_engine.hpp"

namespace dyngossip {

/// Phase-1 walk parameters shared by all nodes.
struct WalkConfig {
  std::size_t n = 0;      ///< nodes
  std::uint32_t k = 0;    ///< tokens
  double gamma = 0.0;     ///< high-degree threshold γ = n·log n / f
  bool pseudocode_walk_prob = false;  ///< move w.p. 1/d(u) instead of d(u)/n
};

/// Per-node phase-1 state machine.
class WalkNode final : public UnicastAlgorithm {
 public:
  WalkNode(NodeId self, const WalkConfig& cfg, bool is_center,
           std::vector<TokenId> initial_tokens, Rng rng);

  void send(Round r, NeighborView neighbors, Outbox& out) override;
  void on_receive(Round r, NodeId from, const Message& m) override;

  /// True iff this node elected itself a center.
  [[nodiscard]] bool is_center() const noexcept { return is_center_; }

  /// Tokens whose walking instance currently sits at this node (for a
  /// center these are the tokens it has collected and owns).
  [[nodiscard]] const std::vector<TokenId>& held() const noexcept { return held_; }

  /// Virtual (self-loop) steps taken by tokens at this node — counted
  /// toward time, never toward message complexity.
  [[nodiscard]] std::uint64_t virtual_steps() const noexcept { return virtual_steps_; }

  /// Real walk steps (token messages) sent by this node.
  [[nodiscard]] std::uint64_t walk_steps() const noexcept { return walk_steps_; }

  /// Rounds in which some held token was passive due to edge congestion or
  /// missing neighboring centers.
  [[nodiscard]] std::uint64_t passive_token_rounds() const noexcept {
    return passive_token_rounds_;
  }

 private:
  NodeId self_;
  WalkConfig cfg_;
  bool is_center_;
  std::vector<TokenId> held_;
  KnowledgeSet center_informed_;  ///< neighbors I announced center-hood to
  KnowledgeSet known_centers_;    ///< nodes that announced center-hood to me
  Rng rng_;
  std::uint64_t virtual_steps_ = 0;
  std::uint64_t walk_steps_ = 0;
  std::uint64_t passive_token_rounds_ = 0;
};

}  // namespace dyngossip
