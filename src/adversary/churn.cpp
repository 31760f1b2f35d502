#include "adversary/churn.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"

namespace dyngossip {

ChurnAdversary::ChurnAdversary(const ChurnConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), current_(cfg.n) {
  DG_CHECK(cfg_.n >= 1);
  DG_CHECK(cfg_.sigma >= 1);
  if (cfg_.n >= 2 && cfg_.target_edges < cfg_.n - 1) cfg_.target_edges = cfg_.n - 1;
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  cfg_.target_edges = std::min(cfg_.target_edges, max_edges);
}

bool ChurnAdversary::add_random_edge() {
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  if (current_.num_edges() >= max_edges) return false;
  // Rejection sampling; the graphs used in experiments are sparse, so a few
  // tries suffice.  Guard against dense graphs with a bounded fallback scan.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto u = static_cast<NodeId>(rng_.next_below(cfg_.n));
    auto v = static_cast<NodeId>(rng_.next_below(cfg_.n - 1));
    if (v >= u) ++v;
    if (current_.add_edge(u, v)) {
      pending_.push_back(edge_key(u, v));
      return true;
    }
  }
  for (NodeId u = 0; u < cfg_.n; ++u) {
    for (NodeId v = u + 1; v < cfg_.n; ++v) {
      if (current_.add_edge(u, v)) {
        pending_.push_back(edge_key(u, v));
        return true;
      }
    }
  }
  return false;
}

void ChurnAdversary::collect_removable(Round r) {
  // An edge inserted at r0 must be present in rounds r0 .. r0+σ-1, so it
  // may first be absent in round r0+σ.
  std::erase_if(young_, [&](const auto& edge) { return r - edge.second >= cfg_.sigma; });
  // Young edges cannot have been cut, so each one is live: block-copy the
  // runs between them.
  removable_.clear();
  auto pos = live_.cbegin();
  for (const auto& edge : young_) {
    const auto at = std::lower_bound(pos, live_.cend(), edge.first);
    DG_DCHECK(at != live_.cend() && *at == edge.first);
    removable_.insert(removable_.end(), pos, at);
    pos = at + 1;
  }
  removable_.insert(removable_.end(), pos, live_.cend());
}

void ChurnAdversary::commit_round(Round r) {
  if (cut_.empty() && pending_.empty()) return;
  // Drop the cut keys and merge in the inserted ones (a cut edge re-inserted
  // this round stays, now young).  The untouched runs between changed keys
  // are block copies; each changed key is located by a binary search.
  live_scratch_.clear();
  auto pos = live_.cbegin();
  std::size_t c = 0;
  std::size_t p = 0;
  while (c < cut_.size() || p < pending_.size()) {
    // On a tie the cut goes first: the old entry leaves, the new one enters.
    const bool cut = p == pending_.size() || (c < cut_.size() && cut_[c] <= pending_[p]);
    const EdgeKey key = cut ? cut_[c++] : pending_[p++];
    const auto at = std::lower_bound(pos, live_.cend(), key);
    live_scratch_.insert(live_scratch_.end(), pos, at);
    pos = at;
    if (cut) {
      ++pos;
    } else {
      live_scratch_.push_back(key);
    }
  }
  live_scratch_.insert(live_scratch_.end(), pos, live_.cend());
  std::swap(live_, live_scratch_);
  if (cfg_.sigma == 1) return;
  // Young keys are live and inserted keys were absent: no key repeats.
  young_scratch_.clear();
  auto y = young_.cbegin();
  for (const EdgeKey key : pending_) {
    for (; y != young_.cend() && y->first < key; ++y) young_scratch_.push_back(*y);
    young_scratch_.emplace_back(key, r);
  }
  young_scratch_.insert(young_scratch_.end(), y, young_.cend());
  std::swap(young_, young_scratch_);
}

const Graph& ChurnAdversary::next_graph(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;

  if (cfg_.fresh_graph_each_round) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    return current_;
  }

  if (r == 1) {
    // Every edge of the first graph is inserted in round 1.
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    pending_ = current_.sorted_edges();
    cut_.clear();
    commit_round(r);
    return current_;
  }

  // 1. Delete up to churn_per_round edges old enough to respect σ-stability.
  //    live_ is sorted by key, so the removable list comes out in the
  //    canonical order directly.  The shuffle takes all |removable| - 1
  //    draws, however few edges are cut: the schedule depends on them.
  collect_removable(r);
  rng_.shuffle(removable_);
  const std::size_t cuts = std::min(cfg_.churn_per_round, removable_.size());
  cut_.assign(removable_.begin(), removable_.begin() + static_cast<std::ptrdiff_t>(cuts));
  std::sort(cut_.begin(), cut_.end());
  for (const EdgeKey key : cut_) {
    const auto [u, v] = edge_endpoints(key);
    current_.remove_edge(u, v);
  }

  // 2. Replenish toward the target edge count.
  pending_.clear();
  while (current_.num_edges() < cfg_.target_edges) {
    if (!add_random_edge()) break;
  }

  // 3. Patch connectivity (these insertions are part of the adversary's
  //    committed schedule and are charged to TC like any other).  The
  //    checker re-checks the graph from its edit journal; the repair draws
  //    randomness only when there is something to join, so skipping it on a
  //    connected graph leaves the stream unchanged.  Either way the graph
  //    now carries a connectivity verdict the engines' graph plane reuses.
  if (!connectivity_.is_connected(current_)) {
    for (const EdgeKey key : connect_components(current_, rng_)) {
      pending_.push_back(key);
    }
  }

  // 4. Bring the sorted live list and the young edges up to date.
  std::sort(pending_.begin(), pending_.end());
  commit_round(r);
  return current_;
}

}  // namespace dyngossip
