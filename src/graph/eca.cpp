#include "graph/eca.hpp"

#include <algorithm>

namespace sdf {
namespace {

/// Recursive product construction: extend each partial ECA by every
/// activatable alternative of every interface in `cluster`.
void expand_cluster(const HierarchicalGraph& p, const DynBitset& activatable,
                    ClusterId cluster, std::size_t limit,
                    std::vector<Eca>& partials, bool& incomplete) {
  for (NodeId nid : p.cluster(cluster).nodes) {
    const Node& n = p.node(nid);
    if (!n.is_interface()) continue;

    std::vector<ClusterId> options;
    for (ClusterId sub : n.clusters)
      if (activatable.test(sub.index())) options.push_back(sub);
    if (options.empty()) {
      incomplete = true;
      partials.clear();
      return;
    }

    std::vector<Eca> next;
    for (const Eca& base : partials) {
      for (ClusterId option : options) {
        if (limit != 0 && next.size() >= limit) break;
        Eca e = base;
        e.selection.select(p, option);
        e.clusters.push_back(option);
        // Recurse into the chosen cluster: its own interfaces multiply the
        // combinations of this branch only.
        std::vector<Eca> sub_partials{std::move(e)};
        expand_cluster(p, activatable, option, limit, sub_partials,
                       incomplete);
        if (incomplete) {
          partials.clear();
          return;
        }
        for (Eca& se : sub_partials) {
          if (limit != 0 && next.size() >= limit) break;
          next.push_back(std::move(se));
        }
      }
      if (limit != 0 && next.size() >= limit) break;
    }
    partials = std::move(next);
    if (partials.empty()) return;
  }
}

}  // namespace

std::vector<Eca> enumerate_ecas(const HierarchicalGraph& problem,
                                const DynBitset& activatable,
                                std::size_t limit) {
  std::vector<Eca> partials{Eca{}};
  bool incomplete = false;
  expand_cluster(problem, activatable, problem.root(), limit, partials,
                 incomplete);
  if (incomplete) return {};
  for (Eca& e : partials) std::sort(e.clusters.begin(), e.clusters.end());
  return partials;
}

std::vector<Eca> cover_ecas(const HierarchicalGraph& problem,
                            const std::vector<Eca>& ecas) {
  DynBitset covered(problem.cluster_count());
  DynBitset want(problem.cluster_count());
  for (const Eca& e : ecas)
    for (ClusterId c : e.clusters) want.set(c.index());

  std::vector<Eca> cover;
  std::vector<bool> used(ecas.size(), false);
  while (covered != want) {
    std::size_t best = ecas.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < ecas.size(); ++i) {
      if (used[i]) continue;
      std::size_t gain = 0;
      for (ClusterId c : ecas[i].clusters)
        if (!covered.test(c.index())) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == ecas.size()) break;  // nothing adds coverage
    used[best] = true;
    for (ClusterId c : ecas[best].clusters) covered.set(c.index());
    cover.push_back(ecas[best]);
  }
  return cover;
}

}  // namespace sdf
