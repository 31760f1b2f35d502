#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/disjoint_set.hpp"

namespace dyngossip {

ComponentInfo connected_components(const Graph& g) {
  const std::size_t n = g.num_nodes();
  DisjointSet dsu(n);
  g.for_each_edge([&dsu](EdgeKey key) {
    const auto [u, v] = edge_endpoints(key);
    dsu.unite(u, v);
  });
  ComponentInfo info;
  info.labels.assign(n, 0);
  std::vector<std::size_t> root_to_label(n, std::numeric_limits<std::size_t>::max());
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t root = dsu.find(v);
    if (root_to_label[root] == std::numeric_limits<std::size_t>::max()) {
      root_to_label[root] = info.count++;
      info.representatives.push_back(v);
    }
    info.labels[v] = root_to_label[root];
  }
  g.memo_connected(info.count <= 1);
  return info;
}

bool is_connected(const Graph& g) {
  if (const std::optional<bool> memo = g.connectivity_verdict()) return *memo;
  if (g.num_nodes() <= 1) return true;
  return connected_components(g).count == 1;  // memoises the verdict
}

template <typename Neighbors>
bool ConnectivityChecker::reaches_all(std::size_t n, Neighbors&& neighbors) {
  if (n <= 1) {
    parent_.assign(n, 0);
    return true;
  }
  parent_.assign(n, kNoNode);
  frontier_.clear();
  frontier_.reserve(n);
  parent_[0] = 0;
  frontier_.push_back(0);
  // The frontier vector doubles as the BFS queue: elements are appended and
  // consumed by index, never erased, so the buffer is reusable as-is.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const NodeId v = frontier_[head];
    for (const NodeId w : neighbors(v)) {
      if (parent_[w] == kNoNode) {
        parent_[w] = v;
        frontier_.push_back(w);
      }
    }
  }
  return frontier_.size() == n;
}

bool ConnectivityChecker::is_connected(const RoundGraphView& view) {
  tree_valid_ = false;  // parent_ now spans the view, not a Graph
  return reaches_all(view.num_nodes(),
                     [&view](NodeId v) { return view.neighbors(v); });
}

bool ConnectivityChecker::is_connected(const Graph& g) {
  if (const std::optional<bool> memo = g.connectivity_verdict()) return *memo;
  std::optional<std::span<const EdgeKey>> edits;
  if (tree_valid_ && g.identity() == identity_) edits = g.edits_since(version_);
  const bool connected =
      edits ? respan(g, *edits)
            : reaches_all(g.num_nodes(), [&g](NodeId v) { return g.neighbors(v); });
  tree_valid_ = connected;
  identity_ = g.identity();
  version_ = g.watch();
  g.memo_connected(connected);
  return connected;
}

bool ConnectivityChecker::respan(const Graph& g, std::span<const EdgeKey> edits) {
  const std::size_t n = g.num_nodes();
  if (label_.size() != n) label_.assign(n, kNoNode);
  // 1. A removed tree edge detaches the subtree below it.  label_ marks the
  //    roots of the detached subtrees with themselves.
  detached_.clear();
  for (const EdgeKey key : edits) {
    const auto [a, b] = edge_endpoints(key);
    const NodeId child = (a != 0 && parent_[a] == b)   ? a
                         : (b != 0 && parent_[b] == a) ? b
                                                       : kNoNode;
    if (child == kNoNode || label_[child] == child || g.has_edge(a, b)) continue;
    label_[child] = child;
    detached_.push_back(child);
  }

  // 2. Hang each detached root on the neighbor whose parent chain reaches
  //    node 0 in the fewest steps (<= kMaxWalk) past no marked root: that
  //    chain's edges are all in g, and the tree stays about BFS-shallow.
  //    Placing a root unmarks it, so repeat while roots get placed.
  for (std::size_t before = 0; before != detached_.size();) {
    before = detached_.size();
    std::size_t kept = 0;
    for (const NodeId root : detached_) {
      NodeId anchor = kNoNode;
      std::size_t best = kMaxWalk + 1;
      for (const NodeId w : g.neighbors(root)) {
        NodeId u = w;
        std::size_t steps = 0;
        for (; u != 0 && label_[u] == kNoNode && steps + 1 < best; ++steps) {
          u = parent_[u];
        }
        if (u == 0) {
          anchor = w;
          best = steps;
        }
      }
      if (anchor == kNoNode) {
        detached_[kept++] = root;
        continue;
      }
      parent_[root] = anchor;
      label_[root] = kNoNode;
      ++local_reattaches_;
    }
    detached_.resize(kept);
  }
  if (detached_.empty()) return true;
  ++relabels_;

  // 3. Label every node with its nearest detached ancestor-or-self, or 0
  //    for the part still hanging off the root; chain each detached
  //    subtree's members from its root through next_member_.
  label_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    frontier_.clear();
    NodeId u = v;
    while (label_[u] == kNoNode) {
      frontier_.push_back(u);
      u = parent_[u];
    }
    for (const NodeId x : frontier_) label_[x] = label_[u];
  }
  next_member_.assign(n, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId root = label_[v];
    if (root != 0 && root != v) {
      next_member_[v] = next_member_[root];
      next_member_[root] = v;
    }
  }

  // 4. Re-attach: a subtree with a member adjacent to the attached part
  //    re-roots its tree path at that member and hangs it there.  Repeat
  //    while that makes progress (a subtree may reach the root's part only
  //    through another).
  std::size_t attached = 0;
  for (bool progress = true; progress;) {
    progress = false;
    for (NodeId& root : detached_) {
      if (root == kNoNode) continue;
      NodeId member = kNoNode;
      NodeId anchor = kNoNode;
      for (NodeId m = root; m != kNoNode && anchor == kNoNode; m = next_member_[m]) {
        for (const NodeId w : g.neighbors(m)) {
          if (label_[w] == 0) {
            member = m;
            anchor = w;
            break;
          }
        }
      }
      if (anchor == kNoNode) continue;
      // Reverse the tree path member -> root, then hang member on anchor.
      NodeId below = anchor;
      for (NodeId cur = member;;) {
        const NodeId up = parent_[cur];
        parent_[cur] = below;
        if (cur == root) break;
        below = cur;
        cur = up;
      }
      for (NodeId m = root; m != kNoNode; m = next_member_[m]) label_[m] = 0;
      root = kNoNode;
      ++attached;
      progress = true;
    }
  }
  const bool connected = attached == detached_.size();
  label_.assign(n, kNoNode);  // unmarked again for the next respan
  return connected;
}

std::vector<EdgeKey> connect_components(Graph& g, Rng& rng) {
  std::vector<EdgeKey> added;
  const ComponentInfo info = connected_components(g);
  if (info.count <= 1) return added;

  // Collect the members of each component, then join consecutive components
  // in a random order through uniformly random member pairs.
  std::vector<std::vector<NodeId>> members(info.count);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    members[info.labels[v]].push_back(v);
  }
  std::vector<std::size_t> order(info.count);
  for (std::size_t i = 0; i < info.count; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 1; i < info.count; ++i) {
    const NodeId a = rng.pick(members[order[i - 1]]);
    const NodeId b = rng.pick(members[order[i]]);
    const bool fresh = g.add_edge(a, b);
    DG_CHECK(fresh);
    added.push_back(edge_key(a, b));
  }
  g.memo_connected(true);  // the chain joined every component
  return added;
}

BfsTree bfs_tree(const Graph& g, NodeId root) {
  return bfs_tree(RoundGraphView(g), root);
}

BfsTree bfs_tree(const RoundGraphView& view, NodeId root) {
  const std::size_t n = view.num_nodes();
  DG_CHECK(root < n);
  BfsTree tree;
  tree.parent.assign(n, kNoNode);
  tree.depth.assign(n, std::numeric_limits<std::uint32_t>::max());
  tree.order.reserve(n);

  tree.parent[root] = root;
  tree.depth[root] = 0;
  tree.order.push_back(root);
  // tree.order doubles as the BFS queue (append-only, consumed by index).
  for (std::size_t head = 0; head < tree.order.size(); ++head) {
    const NodeId v = tree.order[head];
    for (const NodeId w : view.neighbors(v)) {
      if (tree.parent[w] == kNoNode) {
        tree.parent[w] = v;
        tree.depth[w] = tree.depth[v] + 1;
        tree.order.push_back(w);
      }
    }
  }
  return tree;
}

}  // namespace dyngossip
