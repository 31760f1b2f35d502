#include "graph/dynamic_tracker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

DynamicGraphTracker::DynamicGraphTracker(std::size_t n) : n_(n) {}

void DynamicGraphTracker::merge_round(const std::vector<EdgeKey>& edges, Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;

  diff_.inserted.clear();
  diff_.removed.clear();
  live_scratch_.clear();

  // One pass over two sorted sequences: the previous live set and the new
  // round's edge list.  Matches survive with their insertion round; edges
  // only in the old set are removals; edges only in the new list are
  // insertions.  Output stays sorted, so the merge repeats next round.
  std::size_t i = 0;  // over live_
  std::size_t j = 0;  // over edges
  while (i < live_.size() || j < edges.size()) {
    if (j == edges.size() ||
        (i < live_.size() && live_[i].key < edges[j])) {
      retire(live_[i], r);
      ++i;
    } else if (i == live_.size() || edges[j] < live_[i].key) {
      diff_.inserted.push_back(edges[j]);
      ++tc_;
      live_scratch_.push_back({edges[j], r});
      ++j;
    } else {
      live_scratch_.push_back(live_[i]);
      ++i;
      ++j;
    }
  }
  std::swap(live_, live_scratch_);
}

void DynamicGraphTracker::retire(const LiveEdge& edge, Round r) {
  const Round lifetime = r - edge.inserted;  // present [inserted, r-1]
  min_lifetime_ =
      (min_lifetime_ == kNoRound) ? lifetime : std::min(min_lifetime_, lifetime);
  diff_.removed.push_back(edge.key);
  ++deletions_;
}

const GraphDiff& DynamicGraphTracker::apply(const GraphDiff& diff, Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;
  diff_.inserted.clear();
  diff_.removed.clear();
  if (diff.inserted.empty() && diff.removed.empty()) return diff_;

  // Walk the changed keys in key order.  Each one is located by a binary
  // search from the current position; the untouched run before it is
  // block-copied, a removal drops its entry, an insertion adds {key, r}.
  live_scratch_.clear();
  live_scratch_.reserve(live_.size() + diff.inserted.size());
  const auto key_less = [](const LiveEdge& e, EdgeKey k) { return e.key < k; };
  auto pos = live_.begin();
  std::size_t a = 0;  // over diff.inserted
  std::size_t b = 0;  // over diff.removed
  while (a < diff.inserted.size() || b < diff.removed.size()) {
    const bool insert = b == diff.removed.size() ||
                        (a < diff.inserted.size() && diff.inserted[a] < diff.removed[b]);
    const EdgeKey key = insert ? diff.inserted[a++] : diff.removed[b++];
    const auto at = std::lower_bound(pos, live_.end(), key, key_less);
    live_scratch_.insert(live_scratch_.end(), pos, at);
    pos = at;
    const bool live = at != live_.end() && at->key == key;
    if (insert) {
      DG_CHECK(!live);
      diff_.inserted.push_back(key);
      ++tc_;
      live_scratch_.push_back({key, r});
    } else {
      DG_CHECK(live);
      retire(*at, r);
      ++pos;
    }
  }
  live_scratch_.insert(live_scratch_.end(), pos, live_.end());
  std::swap(live_, live_scratch_);
  return diff_;
}

GraphDiff DynamicGraphTracker::advance(const Graph& g, Round r) {
  DG_CHECK(g.num_nodes() == n_);
  edge_scratch_ = g.sorted_edges();
  merge_round(edge_scratch_, r);
  return diff_;  // copy: the public Graph-based contract returns by value
}

const GraphDiff& DynamicGraphTracker::advance(const RoundGraphView& view, Round r) {
  DG_CHECK(view.num_nodes() == n_);
  edge_scratch_.clear();
  view.for_each_edge([this](EdgeKey key) { edge_scratch_.push_back(key); });
  merge_round(edge_scratch_, r);
  return diff_;
}

Round DynamicGraphTracker::insertion_round(EdgeKey key) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), key,
      [](const LiveEdge& e, EdgeKey k) { return e.key < k; });
  return (it == live_.end() || it->key != key) ? kNoRound : it->inserted;
}

}  // namespace dyngossip
