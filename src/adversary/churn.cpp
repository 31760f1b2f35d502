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

void ChurnAdversary::reset_ages(Round r) {
  inserted_at_.clear();
  current_.for_each_edge(
      [this, r](EdgeKey key) { inserted_at_.push_back({key, r}); });
  std::sort(inserted_at_.begin(), inserted_at_.end());
}

const Graph& ChurnAdversary::next_graph(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;

  if (cfg_.fresh_graph_each_round) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    return current_;
  }

  if (r == 1) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    reset_ages(1);
    return current_;
  }

  // 1. Delete up to churn_per_round edges old enough to respect σ-stability.
  //    An edge inserted at r0 must be present in rounds r0 .. r0+σ-1, so it
  //    may first be absent in round r0+σ.  inserted_at_ is sorted by key, so
  //    the removable list comes out in the canonical order directly.
  removable_.clear();
  for (const auto& [key, r0] : inserted_at_) {
    if (r >= r0 + cfg_.sigma) removable_.push_back(key);
  }
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

  // 4. Rebuild the sorted age list: drop the cut edges, merge in this
  //    round's insertions aged r (a cut edge re-inserted this round comes
  //    back aged r).  The untouched runs between changed keys are block
  //    copies; each changed key is located by a binary search.
  if (cut_.empty() && pending_.empty()) return current_;
  std::sort(pending_.begin(), pending_.end());
  age_scratch_.clear();
  const auto key_less = [](const std::pair<EdgeKey, Round>& e, EdgeKey k) {
    return e.first < k;
  };
  auto pos = inserted_at_.cbegin();
  std::size_t c = 0;
  std::size_t p = 0;
  while (c < cut_.size() || p < pending_.size()) {
    // On a tie the cut goes first: the old entry leaves, the new one enters.
    const bool cut = p == pending_.size() || (c < cut_.size() && cut_[c] <= pending_[p]);
    const EdgeKey key = cut ? cut_[c++] : pending_[p++];
    const auto at = std::lower_bound(pos, inserted_at_.cend(), key, key_less);
    age_scratch_.insert(age_scratch_.end(), pos, at);
    pos = at;
    if (cut) {
      ++pos;
    } else {
      age_scratch_.push_back({key, r});
    }
  }
  age_scratch_.insert(age_scratch_.end(), pos, inserted_at_.cend());
  std::swap(inserted_at_, age_scratch_);
  return current_;
}

}  // namespace dyngossip
