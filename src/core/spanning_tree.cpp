#include "core/spanning_tree.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

SpanningTreeNode::SpanningTreeNode(NodeId self, const SpanningTreeConfig& cfg,
                                   const KnowledgeSet& initial_tokens)
    : self_(self), cfg_(cfg), tokens_(cfg.space->total_tokens()) {
  DG_CHECK(cfg_.space != nullptr);
  DG_CHECK(self < cfg_.n);
  DG_CHECK(cfg_.root < cfg_.n);
  if (self == cfg_.root) parent_ = self;  // the root is its own parent
  provenance_.assign(cfg_.space->total_tokens(), kNoNode);
  for (const std::size_t t : initial_tokens.set_bits()) {
    tokens_.set(t);
    sequence_.push_back(static_cast<TokenId>(t));
  }
}

void SpanningTreeNode::send(Round r, NeighborView view, Outbox& out) {
  const std::span<const NodeId> neighbors = view.ids;
  // Static-topology guard: the protocol is only defined on static graphs.
  if (r == 1) {
    first_neighbors_.assign(neighbors.begin(), neighbors.end());
  } else {
    DG_CHECK(std::equal(neighbors.begin(), neighbors.end(),
                        first_neighbors_.begin(), first_neighbors_.end()));
  }

  // --- Tree construction (rounds 1..n) ---------------------------------
  if (parent_ != kNoNode && !flooded_join_) {
    flooded_join_ = true;
    for (const NodeId w : neighbors) {
      if (w != parent_ || self_ == cfg_.root) {
        out.send(w, Message::control(ControlKind::kTreeJoin));
      }
    }
  }
  if (parent_ != kNoNode && parent_ != self_ && !sent_accept_) {
    sent_accept_ = true;
    out.send(parent_, Message::control(ControlKind::kTreeAccept));
  }

  // --- Dissemination (rounds > n): flood each token over the tree away
  // from its origin, one token per tree edge per round -------------------
  if (r <= cfg_.n) return;
  DG_CHECK(parent_ != kNoNode);  // build always finishes within n rounds
  for (std::size_t i = 0; i < tree_neighbors_.size(); ++i) {
    const NodeId w = tree_neighbors_[i];
    std::size_t& cur = cursor_[i];
    // Skip tokens this neighbor itself delivered to us.
    while (cur < sequence_.size() && provenance_[sequence_[cur]] == w) ++cur;
    if (cur < sequence_.size()) {
      out.send(w, Message::token_msg(sequence_[cur]));
      ++cur;
    }
  }
}

void SpanningTreeNode::on_receive(Round /*r*/, NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kControl:
      switch (m.control_kind()) {
        case ControlKind::kTreeJoin:
          if (parent_ == kNoNode) {
            parent_ = from;
            tree_neighbors_.push_back(from);
            cursor_.push_back(0);
          }
          break;
        case ControlKind::kTreeAccept:
          children_.push_back(from);
          tree_neighbors_.push_back(from);
          cursor_.push_back(0);
          break;
        default:
          DG_CHECK(false && "unexpected control kind in spanning-tree protocol");
      }
      break;
    case MsgType::kToken:
      DG_CHECK(m.token < tokens_.size());
      // Tree flooding delivers each token exactly once per node.
      DG_CHECK(tokens_.set(m.token));
      provenance_[m.token] = from;
      sequence_.push_back(m.token);
      break;
    default:
      DG_CHECK(false && "spanning-tree protocol exchanges only control+token");
  }
}

std::vector<std::unique_ptr<UnicastAlgorithm>> SpanningTreeNode::make_all(
    const SpanningTreeConfig& cfg) {
  const std::vector<KnowledgeSet> initial = cfg.space->initial_knowledge(cfg.n);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.reserve(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<SpanningTreeNode>(v, cfg, initial[v]));
  }
  return nodes;
}

}  // namespace dyngossip
