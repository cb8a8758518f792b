// Run-time adaptation: time-dependent cluster switching (§2).
//
// "We do not restrict cluster-selection to system start-up.  Thus,
// reconfigurable and adaptive systems may be modeled via time-dependent
// switching of clusters."
//
// This example takes the $430 Set-Top platform (which implements every
// behavior, f = 8) and plays a usage scenario on it:
//   t =  0 : user watches TV station 1  (decryptor D1, uncompressor U1)
//   t = 10 : station change -> station needs D3/U2: the FPGA reconfigures
//            between its stored designs across two activations
//   t = 25 : user starts a game (class G2 on the ASIC)
//   t = 40 : back to TV station 1
// For every instant the example validates the hierarchical activation
// rules, resolves a feasible binding and prints where each active process
// runs and how loaded the resources are.
//
//   $ ./adaptive_switching
#include <cstdio>

#include "core/sdf.hpp"

int main() {
  using namespace sdf;
  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();

  // The fully flexible platform from the case study's Pareto front.
  const ExploreResult explored = explore(spec);
  const Implementation& platform = explored.front.back();
  std::printf("platform: %s ($%.0f, f=%.0f)\n\n",
              spec.allocation_names(platform.units).c_str(), platform.cost,
              platform.flexibility);

  auto select = [&](std::initializer_list<const char*> clusters) {
    ClusterSelection sel;
    for (const char* name : clusters) sel.select(p, p.find_cluster(name));
    return sel;
  };

  // ---- The adaptation scenario as a timed activation. ----
  ActivationTimeline timeline;
  timeline.switch_at(0.0, select({"gD", "gD1", "gU1"}));   // TV station 1
  timeline.switch_at(10.0, select({"gD", "gD3", "gU1"}));  // station w/ D3
  timeline.switch_at(18.0, select({"gD", "gD1", "gU2"}));  // station w/ U2
  timeline.switch_at(25.0, select({"gG", "gG2"}));         // game session
  timeline.switch_at(40.0, select({"gD", "gD1", "gU1"}));  // back to TV

  if (Status s = timeline.check(p); !s.ok()) {
    std::printf("timeline invalid: %s\n", s.error().message.c_str());
    return 1;
  }
  std::printf("timeline valid: every instant satisfies activation rules 1-4\n\n");

  // ---- Resolve and print the implementation at each instant. ----
  Table table({"t", "active clusters", "binding", "max util"});
  for (double t : timeline.switch_times()) {
    const ClusterSelection sel = *timeline.selection_at(t);
    const ActivationState state = ActivationState::from_selection(p, sel);

    // Recover the elementary activation from the state and bind it.
    Eca eca;
    eca.selection = sel;
    state.clusters.for_each([&](std::size_t i) {
      if (!p.cluster(ClusterId{i}).is_root())
        eca.clusters.push_back(ClusterId{i});
    });
    const auto binding = solve_binding(cs, platform.units, eca);
    if (!binding.has_value()) {
      std::printf("t=%.0f: no feasible binding!\n", t);
      return 1;
    }

    std::string clusters, bindings;
    for (ClusterId c : eca.clusters) {
      if (!clusters.empty()) clusters += "+";
      clusters += p.cluster(c).name;
    }
    for (const BindingAssignment& a : binding->assignments()) {
      if (!bindings.empty()) bindings += ", ";
      bindings += p.node(a.process).name + "->" +
                  spec.alloc_units()[a.unit.index()].name;
    }
    const UtilizationReport util = analyze_utilization(cs, *binding);
    table.add_row({format_double(t), clusters, bindings,
                   format_double(util.max_utilization, 2)});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  std::printf(
      "note the FPGA usage across t=10 and t=18: the same device serves as\n"
      "D3 decryptor, then is reconfigured out of the active set — exactly\n"
      "one configuration is active per instant (non-ambiguous architecture).\n");
  return 0;
}
