#include "graph/dynamic_tracker.hpp"

#include "common/check.hpp"

namespace dyngossip {

void DynamicGraphTracker::merge_round(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;
  diff_.inserted.clear();
  diff_.removed.clear();
  std::size_t i = 0;  // over live_
  std::size_t j = 0;  // over edges_
  while (i < live_.size() || j < edges_.size()) {
    if (j == edges_.size() || (i < live_.size() && live_[i] < edges_[j])) {
      diff_.removed.push_back(live_[i++]);
    } else if (i == live_.size() || edges_[j] < live_[i]) {
      diff_.inserted.push_back(edges_[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  tc_ += diff_.inserted.size();
  deletions_ += diff_.removed.size();
  std::swap(live_, edges_);
}

GraphDiff DynamicGraphTracker::advance(const Graph& g, Round r) {
  DG_CHECK(g.num_nodes() == n_);
  edges_ = g.sorted_edges();
  merge_round(r);
  return diff_;  // copy: the public Graph-based contract returns by value
}

const GraphDiff& DynamicGraphTracker::advance(const RoundGraphView& view, Round r) {
  DG_CHECK(view.num_nodes() == n_);
  edges_.clear();
  view.for_each_edge([this](EdgeKey key) { edges_.push_back(key); });
  merge_round(r);
  return diff_;
}

}  // namespace dyngossip
