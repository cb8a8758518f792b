// The paper's case study end-to-end: dimensioning a family of Set-Top
// boxes (§5).
//
// Walks through the whole flow on the Fig. 3/Fig. 5 specification:
//   1. model summary (applications, alternatives, platform, Table 1),
//   2. maximal flexibility of the family,
//   3. EXPLORE run -> the six Pareto-optimal platforms,
//   4. a closer look at one mid-range platform: which elementary cluster
//      activations it supports and how utilized each resource is,
//   5. artifacts: DOT renderings and a JSON model dump under /tmp.
//
//   $ ./settop_family
#include <cstdio>
#include <fstream>

#include "core/sdf.hpp"

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  std::printf("  wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

}  // namespace

int main() {
  using namespace sdf;
  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec& cs = spec.compiled();

  // ---- 1. Model summary. ----
  std::printf("== Set-Top box family (Haubelt et al., DATE 2002, Figs. 3/5) ==\n\n");
  std::printf("problem graph : %zu processes, %zu interfaces, %zu clusters\n",
              spec.problem().leaves().size(),
              spec.problem().all_interfaces().size(),
              spec.problem().all_refinement_clusters().size());
  std::printf("architecture  : %zu allocatable units\n",
              spec.alloc_units().size());
  Table units({"unit", "kind", "cost"});
  for (const AllocUnit& u : spec.alloc_units()) {
    units.add_row({u.name,
                   u.is_comm ? "bus"
                             : (u.is_cluster_unit() ? "fpga config"
                                                    : "processor/asic"),
                   format_double(u.cost)});
  }
  std::printf("%s\n", units.to_ascii().c_str());

  // ---- 2. Flexibility of the family. ----
  std::printf("maximal flexibility (Def. 4, all clusters): f = %.0f\n",
              max_flexibility(spec.problem()));
  std::printf("without the game console (a+ = 0 for gG):   f = %.0f\n\n",
              flexibility(spec.problem(), [&](ClusterId c) {
                return spec.problem().cluster(c).name != "gG";
              }));

  // ---- 3. Exploration. ----
  const ExploreResult result = explore(spec);
  std::printf("== Pareto-optimal platforms (EXPLORE) ==\n\n");
  Table front({"resources", "implemented clusters", "c", "f"});
  for (const Implementation& impl : result.front) {
    std::string clusters;
    for (ClusterId c : impl.leaf_clusters(spec.problem())) {
      if (!clusters.empty()) clusters += ", ";
      clusters += spec.problem().cluster(c).name;
    }
    front.add_row({spec.allocation_names(impl.units), clusters,
                   "$" + format_double(impl.cost),
                   format_double(impl.flexibility)});
  }
  std::printf("%s\n", front.to_ascii().c_str());
  std::printf(
      "search space 2^%zu = %.0f | possible allocations inspected: %llu | "
      "binding attempts: %llu | solver calls: %llu | %.1f ms\n\n",
      result.stats.universe, result.stats.raw_design_points,
      static_cast<unsigned long long>(result.stats.possible_allocations),
      static_cast<unsigned long long>(result.stats.implementation_attempts),
      static_cast<unsigned long long>(result.stats.solver_calls),
      result.stats.wall_seconds * 1e3);

  // ---- 4. One platform in detail: $290 (uP2 + FPGA configs + C1). ----
  const Implementation& mid = result.front[3];
  std::printf("== Platform %s ($%.0f, f=%.0f) in detail ==\n\n",
              spec.allocation_names(mid.units).c_str(), mid.cost,
              mid.flexibility);
  Table ecas({"elementary activation", "binding", "max utilization"});
  for (const FeasibleEca& fe : mid.ecas) {
    std::string activation, binding;
    for (ClusterId c : fe.eca.clusters) {
      const Cluster& cl = spec.problem().cluster(c);
      bool leaf = true;
      for (NodeId n : cl.nodes)
        if (spec.problem().node(n).is_interface()) leaf = false;
      if (!leaf) continue;
      if (!activation.empty()) activation += "+";
      activation += cl.name;
    }
    for (const BindingAssignment& a : fe.binding.assignments()) {
      if (!binding.empty()) binding += ", ";
      binding += spec.problem().node(a.process).name + "->" +
                 spec.alloc_units()[a.unit.index()].name;
    }
    const UtilizationReport util = analyze_utilization(cs, fe.binding);
    ecas.add_row({activation, binding,
                  format_double(util.max_utilization, 3)});
  }
  std::printf("%s\n", ecas.to_ascii().c_str());

  // ---- 5. Artifacts. ----
  std::printf("== Artifacts ==\n");
  write_file("/tmp/settop_problem.dot",
             to_dot(spec.problem(), {.title = "Set-Top box problem graph"}));
  write_file("/tmp/settop_architecture.dot",
             to_dot(spec.architecture(), {.title = "Set-Top box platform"}));
  write_file("/tmp/settop_spec.json", spec_to_string(spec).value());
  return 0;
}
