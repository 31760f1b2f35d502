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

void RoundGraphPlane::carry_since(Round r, bool carry) {
  if (!carry) {
    since_.assign(view_.num_arcs(), r);
    return;
  }
  since_.resize(view_.num_arcs());
  const auto n = static_cast<NodeId>(view_.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    // Both neighbor lists are sorted: one linear merge per node.
    const std::span<const NodeId> now = view_.neighbors(v);
    const std::span<const NodeId> before = prev_view_.neighbors(v);
    const Round* before_since = prev_since_.data() + prev_view_.arc_begin(v);
    Round* out = since_.data() + view_.arc_begin(v);
    std::size_t p = 0;
    for (std::size_t i = 0; i < now.size(); ++i) {
      while (p < before.size() && before[p] < now[i]) ++p;
      out[i] = p < before.size() && before[p] == now[i] ? before_since[p] : r;
    }
  }
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
    view_.patch(diff_.inserted, diff_.removed, track_since_ ? &since_ : nullptr, r);
    ++patched_;
    // G_{r-1} passed the check; insertions alone cannot disconnect it.
    if (!diff_.removed.empty()) {
      connected = verdict ? *verdict : connectivity_.is_connected(view_);
    }
  } else {
    if (track_since_) {
      std::swap(view_, prev_view_);
      std::swap(since_, prev_since_);
    }
    view_.rebuild(g);
    if (track_since_) carry_since(r, round_ != 0 && round_ + 1 == r);
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
