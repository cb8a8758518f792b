#include "bind/enumerate.hpp"

#include "spec/compiled.hpp"

namespace sdf {
namespace {

/// Full feasibility check of a complete binding, mirroring the solver's
/// constraints but evaluated monolithically.
bool feasible_binding(const CompiledSpec& cs, const AllocSet& alloc,
                      const FlatGraph& flat, const Binding& binding,
                      const SolverOptions& options) {
  if (!check_binding(cs, alloc, flat, binding, options.comm_model).ok())
    return false;

  // At most one configuration per device across the whole binding.
  std::vector<std::pair<NodeId, ClusterId>> devices;
  for (const BindingAssignment& a : binding.assignments()) {
    const AllocUnit& u = cs.unit(a.unit);
    if (!u.is_cluster_unit()) continue;
    for (const auto& [dev, cfg] : devices)
      if (dev == u.top && cfg != u.cluster) return false;
    devices.emplace_back(u.top, u.cluster);
  }

  if (options.utilization_bound > 0.0) {
    const std::vector<double> util = unit_utilizations(cs, binding);
    for (double u : util)
      if (u > options.utilization_bound + 1e-9) return false;
  }

  const std::vector<double> used = unit_footprints(cs, binding);
  for (std::size_t i = 0; i < used.size(); ++i) {
    const double capacity = cs.unit_capacity(AllocUnitId{i});
    if (capacity > 0.0 && used[i] > capacity + 1e-9) return false;
  }
  return true;
}

}  // namespace

BindingEnumeration enumerate_bindings(const CompiledSpec& cs,
                                      const AllocSet& alloc, const Eca& eca,
                                      const SolverOptions& options,
                                      std::size_t max_feasible) {
  BindingEnumeration result;
  const std::shared_ptr<const CompiledFlat> flat = cs.flat(eca.selection);
  if (flat == nullptr) return result;

  // Domains: allocated mapping targets per process, straight from the
  // compiled domain skeleton.
  const std::vector<NodeId>& processes = flat->graph.vertices;
  std::vector<std::vector<CompiledMapping>> domains(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    for (const CompiledMapping& m : cs.mappings_of(processes[i]))
      if (m.unit.valid() && alloc.test(m.unit.index()))
        domains[i].push_back(m);
    if (domains[i].empty()) return result;  // no complete assignment at all
  }

  std::vector<std::size_t> choice(processes.size(), 0);
  while (true) {
    Binding binding;
    for (std::size_t i = 0; i < processes.size(); ++i) {
      const CompiledMapping& m = domains[i][choice[i]];
      binding.assign(
          BindingAssignment{processes[i], m.resource, m.unit, m.latency});
    }
    ++result.assignments;
    if (feasible_binding(cs, alloc, flat->graph, binding, options)) {
      if (max_feasible != 0 && result.feasible.size() >= max_feasible) {
        result.truncated = true;
        return result;
      }
      result.feasible.push_back(std::move(binding));
    }

    // Odometer increment.
    std::size_t pos = 0;
    while (pos < processes.size() && ++choice[pos] == domains[pos].size()) {
      choice[pos] = 0;
      ++pos;
    }
    if (pos == processes.size()) break;
  }
  return result;
}

}  // namespace sdf
