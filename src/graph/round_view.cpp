#include "graph/round_view.hpp"

#include <algorithm>

namespace dyngossip {

namespace {

/// Directed arc from -> to, packed so arcs sort by (source, target).
constexpr std::uint64_t pack_arc(NodeId from, NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
}
constexpr NodeId arc_source(std::uint64_t arc) noexcept {
  return static_cast<NodeId>(arc >> 32);
}
constexpr NodeId arc_target(std::uint64_t arc) noexcept {
  return static_cast<NodeId>(arc & 0xffffffffULL);
}

/// Both directed arcs of every edge of the sorted `edges`, sorted by
/// (source, target).  A canonical key packs as its low->high arc, so those
/// arrive sorted; only the high->low arcs need a sort before the merge.
void directed_arcs(const std::vector<EdgeKey>& edges, std::vector<std::uint64_t>& scratch,
                   std::vector<std::uint64_t>& out) {
  scratch.clear();
  for (const EdgeKey key : edges) {
    const auto [u, v] = edge_endpoints(key);
    scratch.push_back(pack_arc(v, u));
  }
  std::sort(scratch.begin(), scratch.end());
  out.resize(2 * edges.size());
  std::merge(scratch.begin(), scratch.end(), edges.begin(), edges.end(), out.begin());
}

}  // namespace

void RoundGraphView::rebuild(const Graph& g) {
  const std::size_t n = g.num_nodes();
  num_nodes_ = n;
  offsets_.resize(n + 1);
  cursor_.resize(n + 1);
  targets_.resize(2 * g.num_edges());

  offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + g.degree(v);
  DG_CHECK(offsets_[n] == targets_.size());

  // Append each arc u->w to w's block while scanning sources u in increasing
  // order: every block receives its targets pre-sorted.
  std::copy(offsets_.begin(), offsets_.end(), cursor_.begin());
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId w : g.neighbors(u)) {
      targets_[cursor_[w]++] = u;
    }
  }
}

std::size_t RoundGraphView::arc_index(NodeId v, NodeId w) const {
  const std::span<const NodeId> block = neighbors(v);
  const auto it = std::lower_bound(block.begin(), block.end(), w);
  if (it == block.end() || *it != w) return kNoArc;
  return offsets_[v] + static_cast<std::size_t>(it - block.begin());
}

void RoundGraphView::patch(const std::vector<EdgeKey>& inserted,
                           const std::vector<EdgeKey>& removed,
                           std::vector<Round>* arc_values, Round fill) {
  if (inserted.empty() && removed.empty()) return;
  directed_arcs(inserted, arc_scratch_, arc_inserts_);
  directed_arcs(removed, arc_scratch_, arc_removes_);
  DG_CHECK(targets_.size() + arc_inserts_.size() >= arc_removes_.size());
  const std::size_t arcs = targets_.size() + arc_inserts_.size() - arc_removes_.size();
  targets_scratch_.resize(arcs);
  if (arc_values != nullptr) {
    DG_CHECK(arc_values->size() == targets_.size());
    values_scratch_.resize(arcs);
  }

  // The CSR target array lists arcs in (source, target) order, the same
  // order the packed arc edits sort in, so the patch is one sorted merge:
  // block-copy the run up to each edit's position, then write or skip it.
  // The per-arc values, when given, follow the same copies.
  const auto copy_run = [&](std::size_t from, std::size_t to, std::size_t out) {
    std::copy(targets_.begin() + static_cast<std::ptrdiff_t>(from),
              targets_.begin() + static_cast<std::ptrdiff_t>(to),
              targets_scratch_.begin() + static_cast<std::ptrdiff_t>(out));
    if (arc_values != nullptr) {
      std::copy(arc_values->begin() + static_cast<std::ptrdiff_t>(from),
                arc_values->begin() + static_cast<std::ptrdiff_t>(to),
                values_scratch_.begin() + static_cast<std::ptrdiff_t>(out));
    }
  };
  std::size_t in = 0;
  std::size_t out = 0;
  std::size_t i = 0;  // over arc_inserts_
  std::size_t j = 0;  // over arc_removes_
  while (i < arc_inserts_.size() || j < arc_removes_.size()) {
    const bool insert = j == arc_removes_.size() ||
                        (i < arc_inserts_.size() && arc_inserts_[i] < arc_removes_[j]);
    const std::uint64_t arc = insert ? arc_inserts_[i++] : arc_removes_[j++];
    const NodeId v = arc_source(arc);
    const NodeId t = arc_target(arc);
    DG_CHECK(v < num_nodes_);
    const auto block_end = targets_.cbegin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]);
    const auto at_it = std::lower_bound(
        targets_.cbegin() + static_cast<std::ptrdiff_t>(std::max(in, offsets_[v])),
        block_end, t);
    const auto at = static_cast<std::size_t>(at_it - targets_.cbegin());
    copy_run(in, at, out);
    out += at - in;
    in = at;
    const bool present = at_it != block_end && *at_it == t;
    if (insert) {
      DG_CHECK(!present);
      targets_scratch_[out] = t;
      if (arc_values != nullptr) values_scratch_[out] = fill;
      ++out;
    } else {
      DG_CHECK(present);
      ++in;
    }
  }
  copy_run(in, targets_.size(), out);
  std::swap(targets_, targets_scratch_);
  if (arc_values != nullptr) std::swap(*arc_values, values_scratch_);

  // Each block start shifts by the net arc edits of all lower sources: a
  // constant between two touched sources.
  std::size_t shift_in = 0;   // inserted arcs of the sources passed so far
  std::size_t shift_out = 0;  // removed arcs of the sources passed so far
  std::size_t v = 0;
  i = 0;
  j = 0;
  while (i < arc_inserts_.size() || j < arc_removes_.size()) {
    const NodeId source = arc_source(
        std::min(i < arc_inserts_.size() ? arc_inserts_[i] : ~std::uint64_t{0},
                 j < arc_removes_.size() ? arc_removes_[j] : ~std::uint64_t{0}));
    for (; v <= source; ++v) offsets_[v] = offsets_[v] + shift_in - shift_out;
    for (; i < arc_inserts_.size() && arc_source(arc_inserts_[i]) == source; ++i) ++shift_in;
    for (; j < arc_removes_.size() && arc_source(arc_removes_[j]) == source; ++j) ++shift_out;
  }
  for (; v <= num_nodes_; ++v) offsets_[v] = offsets_[v] + shift_in - shift_out;
}

}  // namespace dyngossip
