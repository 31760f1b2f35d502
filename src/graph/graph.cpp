#include "graph/graph.hpp"

#include <algorithm>
#include <utility>

namespace dyngossip {

namespace {

/// Source of process-unique graph identities (0 is never issued).
std::atomic<std::uint64_t> next_identity{1};

/// Swap-removes `x` from `list`; returns true iff it was present.
bool drop_from(std::vector<NodeId>& list, NodeId x) {
  const auto it = std::find(list.begin(), list.end(), x);
  if (it == list.end()) return false;
  *it = list.back();
  list.pop_back();
  return true;
}

}  // namespace

Graph::Graph(std::size_t n) : adjacency_(n) { renew_identity(); }

Graph::Graph(std::size_t n, const std::vector<EdgeKey>& edges) : Graph(n) {
  for (const EdgeKey key : edges) {
    const auto [u, v] = edge_endpoints(key);
    add_edge(u, v);
  }
}

Graph::Graph(const Graph& other) : Graph(0) { *this = other; }

Graph::Graph(Graph&& other) noexcept : Graph(0) { *this = std::move(other); }

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  adjacency_ = other.adjacency_;
  num_edges_ = other.num_edges_;
  connectivity_.store(other.connectivity_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  renew_identity();
  return *this;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  adjacency_ = std::move(other.adjacency_);
  num_edges_ = other.num_edges_;
  connectivity_.store(other.connectivity_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  renew_identity();
  other.adjacency_.clear();
  other.num_edges_ = 0;
  other.connectivity_.store(kUnknown, std::memory_order_relaxed);
  other.renew_identity();
  return *this;
}

void Graph::renew_identity() noexcept {
  identity_ = next_identity.fetch_add(1, std::memory_order_relaxed);
  watched_.store(false, std::memory_order_relaxed);
  journal_.clear();
  journal_base_ = version_;
}

void Graph::journal(EdgeKey key) {
  if (!watched_.load(std::memory_order_relaxed)) {  // no consumer holds a version
    journal_base_ = ++version_;
    return;
  }
  // edits_since() serves at most the last (n + m) / 8 entries, so past
  // n + m most of the journal is dead weight: drop it to bound the memory
  // (a consumer caught mid-span rebuilds once).
  if (journal_.size() > adjacency_.size() + num_edges_) {
    journal_.clear();
    journal_base_ = version_;
  }
  journal_.push_back(key);
  ++version_;
}

std::optional<std::span<const EdgeKey>> Graph::edits_since(
    std::uint64_t version) const {
  if (version < journal_base_ || version > version_) return std::nullopt;
  // A patch costs several times more per edit than a rebuild per node or
  // edge: past (n + m) / 8 edits the consumer is better off rebuilding.
  if (8 * (version_ - version) > adjacency_.size() + num_edges_) return std::nullopt;
  const std::size_t skip = static_cast<std::size_t>(version - journal_base_);
  return std::span<const EdgeKey>(journal_).subspan(skip);
}

std::optional<bool> Graph::connectivity_verdict() const noexcept {
  const std::uint8_t memo = connectivity_.load(std::memory_order_relaxed);
  if (memo == kUnknown) return std::nullopt;
  return memo == kConnected;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  const std::vector<NodeId>& su =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
  const NodeId other = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(su.begin(), su.end(), other) != su.end();
}

bool Graph::add_edge(NodeId u, NodeId v) {
  DG_CHECK(u != v);
  DG_CHECK(u < adjacency_.size() && v < adjacency_.size());
  if (has_edge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  journal(edge_key(u, v));
  if (connectivity_.load(std::memory_order_relaxed) == kDisconnected) {
    connectivity_.store(kUnknown, std::memory_order_relaxed);
  }
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  if (!drop_from(adjacency_[u], v)) return false;
  const bool dropped = drop_from(adjacency_[v], u);
  DG_CHECK(dropped);
  --num_edges_;
  journal(edge_key(u, v));
  connectivity_.store(kUnknown, std::memory_order_relaxed);
  return true;
}

std::vector<NodeId> Graph::sorted_neighbors(NodeId v) const {
  std::vector<NodeId> out(adjacency_[v].begin(), adjacency_[v].end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeKey> Graph::edges() const {
  std::vector<EdgeKey> out;
  out.reserve(num_edges_);
  for_each_edge([&out](EdgeKey key) { out.push_back(key); });
  return out;
}

std::vector<EdgeKey> Graph::sorted_edges() const {
  std::vector<EdgeKey> out = edges();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dyngossip
