#include "flex/activatability.hpp"

#include "spec/compiled.hpp"

namespace sdf {
namespace {

/// Recursive activatability per the header's definition.  `memo` caches by
/// cluster index (tri-state: -1 unknown, 0 no, 1 yes).
bool compute(const CompiledSpec& cs, const AllocSet& alloc, ClusterId cluster,
             std::vector<int>& memo) {
  int& slot = memo[cluster.index()];
  if (slot >= 0) return slot == 1;

  const HierarchicalGraph& p = cs.problem();
  const Cluster& c = p.cluster(cluster);
  bool ok = true;
  for (NodeId nid : c.nodes) {
    const Node& n = p.node(nid);
    if (n.is_interface()) {
      bool any = false;
      for (ClusterId sub : n.clusters)
        if (compute(cs, alloc, sub, memo)) any = true;
      if (!any) {
        ok = false;
        break;
      }
    } else if (!alloc.intersects(cs.reachable_units(nid))) {
      ok = false;
      break;
    }
  }
  slot = ok ? 1 : 0;
  return ok;
}

}  // namespace

Activatability::Activatability(const CompiledSpec& cs, const AllocSet& alloc)
    : problem_(cs.problem()), activatable_(cs.problem().cluster_count()) {
  std::vector<int> memo(problem_.cluster_count(), -1);
  root_ = compute(cs, alloc, problem_.root(), memo);
  for (std::size_t i = 0; i < memo.size(); ++i) {
    // Clusters never visited by the recursion (because an enclosing
    // interface already failed) are evaluated on demand here so the bitset
    // is complete.
    if (memo[i] < 0)
      compute(cs, alloc, ClusterId{i}, memo);
    if (memo[i] == 1) activatable_.set(i);
  }
}

std::optional<double> Activatability::estimated_flexibility() const {
  if (!root_) return std::nullopt;
  return flexibility(problem_, activatable_);
}

std::optional<double> estimate_flexibility(const CompiledSpec& cs,
                                           const AllocSet& alloc) {
  return Activatability(cs, alloc).estimated_flexibility();
}

bool is_possible_allocation(const CompiledSpec& cs, const AllocSet& alloc) {
  return Activatability(cs, alloc).root_activatable();
}

}  // namespace sdf
