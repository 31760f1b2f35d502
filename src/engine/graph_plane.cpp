#include "engine/graph_plane.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/check.hpp"

namespace dyngossip {

bool RoundGraphPlane::net_diff(const Graph& g) {
  if (round_ == 0 || g.identity() != identity_) return false;
  const std::optional<std::span<const EdgeKey>> edits = g.edits_since(version_);
  if (!edits) return false;
  // A key's journal entries alternate insert/remove (only successful
  // mutations are journaled), so an even count nets to no change and an
  // odd count flips the edge: present now means inserted, absent removed.
  edit_scratch_.assign(edits->begin(), edits->end());
  std::sort(edit_scratch_.begin(), edit_scratch_.end());
  diff_.inserted.clear();
  diff_.removed.clear();
  for (std::size_t i = 0; i < edit_scratch_.size();) {
    const EdgeKey key = edit_scratch_[i];
    std::size_t j = i + 1;
    while (j < edit_scratch_.size() && edit_scratch_[j] == key) ++j;
    if ((j - i) % 2 == 1) {
      const auto [u, v] = edge_endpoints(key);
      (g.has_edge(u, v) ? diff_.inserted : diff_.removed).push_back(key);
    }
    i = j;
  }
  return true;
}

const GraphDiff& RoundGraphPlane::ingest(const Graph& g, Round r) {
  DG_CHECK(g.num_nodes() == tracker_.num_nodes());
  // The tracker may be shared with an earlier engine: patch only when this
  // plane ingested the tracker's last round itself.
  const bool patch =
      round_ + 1 == r && tracker_.rounds() == round_ && net_diff(g);
  const std::optional<bool> verdict = g.connectivity_verdict();
  bool connected = true;
  if (patch) {
    view_.patch(diff_.inserted, diff_.removed);
    ++patched_;
    // G_{r-1} passed the check; insertions alone cannot disconnect it.
    if (!diff_.removed.empty()) {
      connected = verdict ? *verdict : connectivity_.is_connected(view_);
    }
  } else {
    view_.rebuild(g);
    connected = verdict ? *verdict : connectivity_.is_connected(view_);
  }
  DG_CHECK(connected);
  graph_ = &g;
  identity_ = g.identity();
  version_ = g.watch();
  round_ = r;
  return patch ? tracker_.apply(diff_, r) : tracker_.advance(view_, r);
}

}  // namespace dyngossip
