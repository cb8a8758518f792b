#include "flex/reduce.hpp"

#include "flex/activatability.hpp"
#include "graph/filter.hpp"
#include "spec/compiled.hpp"

namespace sdf {

SpecificationGraph reduce_specification(const SpecificationGraph& spec,
                                        const AllocSet& alloc) {
  const CompiledSpec& cs = spec.compiled();
  // Architecture: keep top-level vertices whose unit is allocated, every
  // interface with at least one allocated configuration, allocated
  // configuration clusters, and all nodes inside kept configurations.
  const auto arch_keep_cluster = [&](const Cluster& c) {
    // Only outermost refinement clusters are units; nested clusters follow
    // their enclosing unit (their leaves resolve to the same unit).
    const auto leaves = spec.architecture().leaves(c.id);
    if (leaves.empty()) return true;  // structural oddity: keep
    const AllocUnitId unit = cs.unit_of_resource(leaves.front());
    if (!unit.valid()) return true;
    return alloc.test(unit.index());
  };
  const auto arch_keep_node = [&](const Node& n) {
    if (n.is_interface()) {
      // Keep a device iff one of its configurations is allocated.
      for (ClusterId sub : n.clusters) {
        const auto leaves = spec.architecture().leaves(sub);
        if (leaves.empty()) continue;
        const AllocUnitId unit = cs.unit_of_resource(leaves.front());
        if (unit.valid() && alloc.test(unit.index())) return true;
      }
      return false;
    }
    // Top-level vertex: keep iff its unit is allocated.  Nodes inside
    // clusters are handled by the cluster predicate; keep them.
    if (!spec.architecture().cluster(n.parent).is_root()) return true;
    const AllocUnitId unit = cs.unit_of_resource(n.id);
    return unit.valid() && alloc.test(unit.index());
  };
  FilterResult arch =
      filter_graph(spec.architecture(), arch_keep_node, arch_keep_cluster);

  // Problem: keep vertices with at least one mapping edge into a surviving
  // architecture leaf, interfaces with at least one activatable refinement,
  // and exactly the activatable clusters.  (A cluster emptied of its
  // unmappable vertices would otherwise read as a trivially-implementable
  // leaf alternative under Def. 4 and inflate the flexibility.)
  const Activatability act(cs, alloc);
  const auto problem_keep = [&](const Node& n) {
    if (n.is_interface()) {
      for (ClusterId sub : n.clusters)
        if (act.activatable(sub)) return true;
      return false;
    }
    for (const CompiledMapping& m : cs.mappings_of(n.id))
      if (arch.node_map[m.resource.index()].valid()) return true;
    return false;
  };
  const auto problem_keep_cluster = [&](const Cluster& c) {
    return act.activatable(c.id);
  };
  FilterResult problem =
      filter_graph(spec.problem(), problem_keep, problem_keep_cluster);

  SpecificationGraph reduced(spec.name() + ".reduced");
  reduced.problem() = std::move(problem.graph);
  reduced.architecture() = std::move(arch.graph);
  for (const MappingEdge& m : spec.mappings()) {
    const NodeId p = problem.node_map[m.process.index()];
    const NodeId r = arch.node_map[m.resource.index()];
    if (p.valid() && r.valid()) reduced.add_mapping(p, r, m.latency);
  }
  return reduced;
}

}  // namespace sdf
