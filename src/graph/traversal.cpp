#include "graph/traversal.hpp"

#include <functional>
#include <queue>
#include <unordered_map>

namespace sdf {

namespace {

/// Kahn's algorithm takes the smallest ready id at each step, so the order
/// does not depend on when a node became ready.
using ReadyHeap =
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>>;

}  // namespace

std::optional<std::vector<NodeId>> topological_order(
    const HierarchicalGraph& g, ClusterId cluster) {
  const Cluster& c = g.cluster(cluster);
  // Keyed by id: an edge into another cluster (an SDF006 defect) counts
  // its foreign endpoint too.
  std::unordered_map<NodeId, std::size_t> indegree;
  indegree.reserve(c.nodes.size());
  for (NodeId n : c.nodes) indegree[n] = 0;
  for (EdgeId eid : c.edges) ++indegree[g.edge(eid).to];

  ReadyHeap ready;
  for (NodeId n : c.nodes)
    if (indegree[n] == 0) ready.push(n);

  std::vector<NodeId> order;
  order.reserve(c.nodes.size());
  while (!ready.empty()) {
    const NodeId n = ready.top();
    ready.pop();
    order.push_back(n);
    for (EdgeId eid : g.node(n).out_edges) {
      const NodeId to = g.edge(eid).to;
      if (--indegree[to] == 0) ready.push(to);
    }
  }
  if (order.size() != c.nodes.size()) return std::nullopt;
  return order;
}

bool is_acyclic(const HierarchicalGraph& g) {
  bool ok = true;
  for_each_cluster(g, [&](ClusterId cid) {
    if (!topological_order(g, cid).has_value()) ok = false;
  });
  return ok;
}

std::optional<std::vector<NodeId>> topological_order(const FlatGraph& flat) {
  std::unordered_map<NodeId, std::size_t> indegree;
  std::unordered_map<NodeId, std::vector<NodeId>> succ;
  for (NodeId v : flat.vertices) indegree[v] = 0;
  for (const auto& [from, to] : flat.edges) {
    ++indegree[to];
    succ[from].push_back(to);
  }
  ReadyHeap ready;
  for (NodeId v : flat.vertices)
    if (indegree[v] == 0) ready.push(v);

  std::vector<NodeId> order;
  order.reserve(flat.vertices.size());
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (NodeId w : succ[v])
      if (--indegree[w] == 0) ready.push(w);
  }
  if (order.size() != flat.vertices.size()) return std::nullopt;
  return order;
}

void for_each_cluster(const HierarchicalGraph& g, ClusterId start,
                      const std::function<void(ClusterId)>& fn) {
  fn(start);
  for (NodeId nid : g.cluster(start).nodes) {
    const Node& n = g.node(nid);
    if (!n.is_interface()) continue;
    for (ClusterId sub : n.clusters) for_each_cluster(g, sub, fn);
  }
}

void for_each_cluster(const HierarchicalGraph& g,
                      const std::function<void(ClusterId)>& fn) {
  for_each_cluster(g, g.root(), fn);
}

namespace {
std::vector<NodeId> flat_boundary(const FlatGraph& flat, bool sources) {
  std::vector<NodeId> out;
  std::unordered_map<NodeId, bool> covered;
  for (const auto& [from, to] : flat.edges) covered[sources ? to : from] = true;
  for (NodeId v : flat.vertices)
    if (!covered.contains(v)) out.push_back(v);
  return out;
}
}  // namespace

std::vector<NodeId> flat_sources(const FlatGraph& flat) {
  return flat_boundary(flat, /*sources=*/true);
}

std::vector<NodeId> flat_sinks(const FlatGraph& flat) {
  return flat_boundary(flat, /*sources=*/false);
}

}  // namespace sdf
