// Oblivious churn adversary.
//
// Generates a committed-in-advance dynamic graph: starting from a random
// connected graph, each round it deletes up to `churn_per_round` edges that
// have been present for at least σ rounds (so the sequence is σ-edge
// stable), inserts fresh random edges to hold the edge count near
// `target_edges`, and patches connectivity with extra random edges if a
// deletion split the graph.  Every decision is a function of the seed and
// the round alone — the oblivious model of Section 1.3.
//
// A `fresh_graph_each_round` mode resamples a completely new connected
// graph every round: the maximum-churn regime (TC grows by ~|E_r| per
// round), useful for stressing the adversary-competitive analysis where the
// algorithm's "free budget" dominates.
#pragma once

#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"

namespace dyngossip {

/// Churn schedule parameters.
struct ChurnConfig {
  std::size_t n = 0;               ///< node count
  std::size_t target_edges = 0;    ///< steady-state |E_r| (>= n-1 enforced)
  std::size_t churn_per_round = 0; ///< deletions attempted per round
  Round sigma = 1;                 ///< σ-edge stability honored (>= 1)
  std::uint64_t seed = 1;          ///< the adversary's committed randomness
  bool fresh_graph_each_round = false;  ///< resample a new graph each round
};

/// Seeded, σ-stable, always-connected churn generator.
class ChurnAdversary final : public ObliviousAdversary {
 public:
  explicit ChurnAdversary(const ChurnConfig& cfg);

  [[nodiscard]] std::size_t num_nodes() const override { return cfg_.n; }

 protected:
  [[nodiscard]] const Graph& next_graph(Round r) override;

 private:
  /// Inserts one uniformly random absent edge (recorded in pending_);
  /// returns false if the graph is complete.
  bool add_random_edge();

  /// Fills removable_ with the live edges old enough to cut in round r:
  /// live_ minus young_, in ascending key order.
  void collect_removable(Round r);

  /// Applies the round's cuts and insertions (cut_, sorted pending_) to
  /// live_, and adds the insertions to young_ while σ > 1.
  void commit_round(Round r);

  ChurnConfig cfg_;
  Rng rng_;
  Graph current_;
  /// current_'s edge set, sorted by key.  The σ-stability scan walks it in
  /// order, so the removable list needs no per-round sort and no hashing.
  std::vector<EdgeKey> live_;
  std::vector<EdgeKey> live_scratch_;  ///< live_ merge buffer
  /// (key, insertion round) of the edges inserted in the last σ - 1
  /// rounds, sorted by key: the only live edges too young to cut.  Always
  /// empty for σ = 1.
  std::vector<std::pair<EdgeKey, Round>> young_;
  std::vector<std::pair<EdgeKey, Round>> young_scratch_;  ///< young_ merge buffer
  std::vector<EdgeKey> removable_;  ///< shuffle buffer: edges old enough to cut
  std::vector<EdgeKey> cut_;        ///< edges cut in the current round, sorted
  std::vector<EdgeKey> pending_;    ///< edges inserted in the current round
  ConnectivityChecker connectivity_;  ///< incremental check of current_
  Round last_round_ = 0;
};

}  // namespace dyngossip
