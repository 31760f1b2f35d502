#include "core/knowledge.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

namespace {

/// Orders EdgeClassifier's (neighbor, round) entries by neighbor.
constexpr auto kByNeighbor = [](const std::pair<NodeId, Round>& e, NodeId x) {
  return e.first < x;
};

}  // namespace

const std::pair<NodeId, TokenId>* find_request(const RequestList& list, NodeId w) {
  const auto it = std::lower_bound(
      list.begin(), list.end(), w,
      [](const std::pair<NodeId, TokenId>& e, NodeId x) { return e.first < x; });
  return (it != list.end() && it->first == w) ? &*it : nullptr;
}

void carry_surviving_requests(RequestList& fresh, const RequestList& surviving,
                              KnowledgeSet& in_flight) {
  std::sort(fresh.begin(), fresh.end());
  const auto fresh_end = static_cast<std::ptrdiff_t>(fresh.size());
  for (const auto& [w, tok] : surviving) {
    in_flight.reset(tok);
    const auto it = std::lower_bound(
        fresh.begin(), fresh.begin() + fresh_end, w,
        [](const std::pair<NodeId, TokenId>& e, NodeId x) { return e.first < x; });
    if (it == fresh.begin() + fresh_end || it->first != w) {
      fresh.push_back({w, tok});
    }
  }
  // The appended tail inherits surviving's order (sorted), so one linear
  // merge restores global order.
  std::inplace_merge(fresh.begin(), fresh.begin() + fresh_end, fresh.end());
}

const char* edge_class_name(EdgeClass c) noexcept {
  switch (c) {
    case EdgeClass::kNew:
      return "new";
    case EdgeClass::kIdle:
      return "idle";
    case EdgeClass::kContributive:
      return "contributive";
  }
  return "?";
}

EdgeClass EdgeClassifier::classify(Round r, NodeId w, Round since,
                                   bool token_arriving_now) const {
  DG_CHECK(since <= r);
  // "New in round r": inserted at the beginning of round r or r-1.
  if (since + 1 >= r) return EdgeClass::kNew;
  if (token_arriving_now || last_learning_over(w) >= since) {
    return EdgeClass::kContributive;
  }
  return EdgeClass::kIdle;
}

void EdgeClassifier::note_learning_over(NodeId w, Round r) {
  const auto it = std::lower_bound(learned_.begin(), learned_.end(), w, kByNeighbor);
  if (it != learned_.end() && it->first == w) {
    DG_CHECK(r >= it->second);
    it->second = r;
  } else {
    learned_.insert(it, {w, r});
  }
}

Round EdgeClassifier::last_learning_over(NodeId w) const {
  const auto it = std::lower_bound(learned_.begin(), learned_.end(), w, kByNeighbor);
  return it != learned_.end() && it->first == w ? it->second : 0;
}

}  // namespace dyngossip
