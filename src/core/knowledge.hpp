// Edge classification for the unicast algorithms (Section 3.1).
//
// Algorithm 1 prioritizes token requests over three classes of adjacent
// edges, evaluated from the incomplete endpoint's perspective:
//   new          — inserted at the beginning of round r or r-1;
//   contributive — not new, and a new token is sent over it between its
//                  last insertion and the end of round r (this includes a
//                  token the node *knows* is arriving this round, because it
//                  requested it last round and the edge survived);
//   idle         — neither.
// Priority: new > idle > contributive.  The idle-before-contributive order
// is what forces the adversary of Lemma 3.2 to delete an idle edge per
// bridge node in every futile round.
//
// Classification reads two per-edge facts.  The edge's `since` round — the
// first round of its current unbroken run of presence, as the node has seen
// it — comes from the engine with the round's neighbor list (the round graph
// plane maintains it per arc).  The last round a new token was learned over
// the edge is the node's own record, kept by EdgeClassifier.  The edge is
//   new          iff since + 1 >= r,
//   contributive iff not new and (learned >= since or a requested token
//                arrives over it this round),
//   idle         otherwise.
// A learning before `since` belongs to an earlier run of the edge, so a
// re-inserted edge is new again and its old contribution no longer counts
// — the "last insertion" wording of the paper.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/knowledge_set.hpp"
#include "common/types.hpp"

namespace dyngossip {

/// The three classes of Section 3.1.
enum class EdgeClass : std::uint8_t { kNew = 0, kIdle = 1, kContributive = 2 };

/// Per-edge request bookkeeping shared by the unicast algorithms:
/// (neighbor, token) pairs kept sorted by neighbor id.
using RequestList = std::vector<std::pair<NodeId, TokenId>>;

/// Entry for neighbor w in a sorted request list, or nullptr.
[[nodiscard]] const std::pair<NodeId, TokenId>* find_request(const RequestList& list,
                                                             NodeId w);

/// Folds the surviving in-flight requests into the round's fresh
/// assignment: sorts `fresh`, appends each surviving entry whose neighbor
/// received no fresh request this round, re-clears the surviving tokens
/// from `in_flight` (restoring its empty-between-rounds invariant), and
/// leaves `fresh` sorted by neighbor.  `surviving` must be sorted.
void carry_surviving_requests(RequestList& fresh, const RequestList& surviving,
                              KnowledgeSet& in_flight);

/// Human-readable class name.
[[nodiscard]] const char* edge_class_name(EdgeClass c) noexcept;

/// Per-node record of the last round a new token was learned over the edge
/// to each neighbor, and the classification built on it.
class EdgeClassifier {
 public:
  /// Classification in round r of the live edge to neighbor w whose
  /// current run of presence began in round `since` (<= r).
  /// `token_arriving_now` means the node knows a requested token arrives
  /// over this edge this round (counts as a contribution "by the end of
  /// round r").
  [[nodiscard]] EdgeClass classify(Round r, NodeId w, Round since,
                                   bool token_arriving_now = false) const;

  /// Records that a new token was learned over the edge to w at the end of
  /// round r (call on first-time token receipt).  Rounds never go back.
  void note_learning_over(NodeId w, Round r);

  /// Last round a new token was learned over the edge to w (0: never).
  [[nodiscard]] Round last_learning_over(NodeId w) const;

 private:
  /// (neighbor, last learning round), sorted by neighbor.  One entry per
  /// neighbor ever learned from, so at most min(n, k) entries.
  std::vector<std::pair<NodeId, Round>> learned_;
};

}  // namespace dyngossip
