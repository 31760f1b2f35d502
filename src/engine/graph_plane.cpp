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

void RoundGraphPlane::diff_rebuilt(Round r, bool carry) {
  diff_.inserted.clear();
  diff_.removed.clear();
  if (track_since_) since_.resize(view_.num_arcs());
  const auto n = static_cast<NodeId>(view_.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    // Both neighbor lists are sorted: one linear merge per node.  Keys
    // (v, w) with w > v come out in canonical order over the whole sweep.
    const std::span<const NodeId> now = view_.neighbors(v);
    const std::span<const NodeId> before = prev_view_.neighbors(v);
    const Round* before_since =
        track_since_ ? prev_since_.data() + prev_view_.arc_begin(v) : nullptr;
    Round* out = track_since_ ? since_.data() + view_.arc_begin(v) : nullptr;
    std::size_t p = 0;
    for (std::size_t i = 0; i < now.size(); ++i) {
      for (; p < before.size() && before[p] < now[i]; ++p) {
        if (before[p] > v) diff_.removed.push_back(edge_key(v, before[p]));
      }
      const bool kept = p < before.size() && before[p] == now[i];
      if (!kept && now[i] > v) diff_.inserted.push_back(edge_key(v, now[i]));
      if (out != nullptr) out[i] = kept && carry ? before_since[p] : r;
      if (kept) ++p;
    }
    for (; p < before.size(); ++p) {
      if (before[p] > v) diff_.removed.push_back(edge_key(v, before[p]));
    }
  }
}

const GraphDiff& RoundGraphPlane::ingest(const Graph& g, Round r) {
  DG_CHECK(g.num_nodes() == view_.num_nodes());
  DG_CHECK(r == round_ + 1);
  const bool patch = net_diff(g);
  const bool carry = !restart_since_;
  restart_since_ = false;
  const std::optional<bool> verdict = g.connectivity_verdict();
  bool connected = true;
  if (patch) {
    view_.patch(diff_.inserted, diff_.removed, track_since_ ? &since_ : nullptr, r);
    if (track_since_ && !carry) since_.assign(view_.num_arcs(), r);
    ++patched_;
    // G_{r-1} passed the check; insertions alone cannot disconnect it.
    if (!diff_.removed.empty()) {
      connected = verdict ? *verdict : connectivity_.is_connected(view_);
    }
  } else {
    std::swap(view_, prev_view_);
    std::swap(since_, prev_since_);
    view_.rebuild(g);
    diff_rebuilt(r, carry);
    connected = verdict ? *verdict : connectivity_.is_connected(view_);
  }
  DG_CHECK(connected);
  graph_ = &g;
  identity_ = g.identity();
  version_ = g.watch();
  round_ = r;
  return diff_;
}

}  // namespace dyngossip
