#include "core/oblivious_ms.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace dyngossip {

WalkNode::WalkNode(NodeId self, const WalkConfig& cfg, bool is_center,
                   std::vector<TokenId> initial_tokens, Rng rng)
    : self_(self),
      cfg_(cfg),
      is_center_(is_center),
      held_(std::move(initial_tokens)),
      center_informed_(cfg.n),
      known_centers_(cfg.n),
      rng_(rng) {
  DG_CHECK(self < cfg_.n);
  for (const TokenId t : held_) DG_CHECK(t < cfg_.k);
}

void WalkNode::send(Round /*r*/, NeighborView view, Outbox& out) {
  const std::span<const NodeId> neighbors = view.ids;
  if (is_center_) {
    // Center announcement, once per distinct neighbor ever met; collected
    // tokens stop here, so no token traffic originates from a center.
    for (const NodeId w : neighbors) {
      if (!center_informed_.test(w)) {
        out.send(w, Message::control(ControlKind::kCenterAnnounce));
        center_informed_.set(w);
      }
    }
    return;
  }
  if (held_.empty()) return;

  const std::size_t d = neighbors.size();
  DG_CHECK(d >= 1);  // round graphs are connected, so every node has a neighbor

  const bool high_degree = static_cast<double>(d) >= cfg_.gamma;
  bool any_passive = false;

  if (high_degree) {
    // Hand one token to each known neighboring center.
    std::vector<NodeId> centers_here;
    for (const NodeId w : neighbors) {
      if (known_centers_.test(w)) centers_here.push_back(w);
    }
    const std::size_t sendable = std::min(centers_here.size(), held_.size());
    for (std::size_t i = 0; i < sendable; ++i) {
      out.send(centers_here[i], Message::token_msg(held_.back()));
      held_.pop_back();
      ++walk_steps_;
    }
    any_passive = !held_.empty();
  } else {
    // Lazy random-walk step per held token on the virtual n-regular
    // multigraph; at most one walk token per incident edge per round.
    const double move_p = cfg_.pseudocode_walk_prob
                              ? 1.0 / static_cast<double>(d)
                              : static_cast<double>(d) / static_cast<double>(cfg_.n);
    std::unordered_set<NodeId> used_edges;
    std::vector<TokenId> staying;
    staying.reserve(held_.size());
    for (const TokenId t : held_) {
      if (!rng_.bernoulli(move_p)) {
        ++virtual_steps_;  // self-loop of the virtual multigraph
        staying.push_back(t);
        continue;
      }
      const NodeId w = neighbors[static_cast<std::size_t>(rng_.next_below(d))];
      if (used_edges.insert(w).second) {
        out.send(w, Message::token_msg(t));
        ++walk_steps_;
      } else {
        // Congestion: the chosen edge already carries a walk token.
        any_passive = true;
        staying.push_back(t);
      }
    }
    held_ = std::move(staying);
  }
  if (any_passive) ++passive_token_rounds_;
}

void WalkNode::on_receive(Round /*r*/, NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kToken:
      DG_CHECK(m.token < cfg_.k);
      // The walking instance is now here; if this is a center it stops for
      // good (owned), otherwise it continues walking next round.
      held_.push_back(m.token);
      break;
    case MsgType::kControl:
      DG_CHECK(m.control_kind() == ControlKind::kCenterAnnounce);
      known_centers_.set(from);
      break;
    default:
      DG_CHECK(false && "phase 1 exchanges only walk tokens and center ads");
  }
}

}  // namespace dyngossip
