// Solver-completeness certification: the backtracking binding solver must
// find a feasible binding exactly when the exhaustive enumeration finds
// one, for every elementary activation and a range of allocations.
#include <gtest/gtest.h>

#include "bind/enumerate.hpp"
#include "bind/solver.hpp"
#include "flex/activatability.hpp"
#include "gen/spec_generator.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

AllocSet alloc_of(const SpecificationGraph& spec,
                  std::initializer_list<const char*> names) {
  AllocSet a = spec.make_alloc_set();
  for (const char* n : names) a.set(spec.find_unit(n).index());
  return a;
}

/// Checks solver vs enumeration on every elementary activation of the
/// activatable clusters of `alloc`.
void check_agreement(const SpecificationGraph& spec, const AllocSet& alloc,
                     const SolverOptions& options = {}) {
  const Activatability act(spec.compiled(), alloc);
  if (!act.root_activatable()) return;
  for (const Eca& eca : enumerate_ecas(spec.problem(), act.clusters())) {
    const auto solved = solve_binding(spec.compiled(), alloc, eca, options);
    const BindingEnumeration all =
        enumerate_bindings(spec.compiled(), alloc, eca, options);
    std::string label;
    for (ClusterId c : eca.clusters)
      label += spec.problem().cluster(c).name + " ";
    EXPECT_EQ(solved.has_value(), !all.feasible.empty())
        << "on " << spec.allocation_names(alloc) << " eca " << label;
    if (solved.has_value()) {
      // The solver's binding is among the feasible set (same semantics).
      bool found = false;
      for (const Binding& b : all.feasible) {
        if (b.size() != solved->size()) continue;
        bool same = true;
        for (const BindingAssignment& a : solved->assignments()) {
          const BindingAssignment* other = b.find(a.process);
          if (other == nullptr || other->resource != a.resource) same = false;
        }
        if (same) found = true;
      }
      EXPECT_TRUE(found) << "solver binding not reproduced by enumeration";
    }
  }
}

TEST(SolverCompleteness, CaseStudyAllocations) {
  const SpecificationGraph& spec = settop();
  check_agreement(spec, alloc_of(spec, {"uP2"}));
  check_agreement(spec, alloc_of(spec, {"uP1"}));
  check_agreement(spec, alloc_of(spec, {"uP2", "C1", "G1", "U2"}));
  check_agreement(spec, alloc_of(spec, {"uP2", "C1", "G1", "U2", "D3"}));
  check_agreement(spec, alloc_of(spec, {"uP2", "A1", "C2"}));
  check_agreement(spec, alloc_of(spec, {"uP2", "A1", "C1", "C2", "D3"}));
  // Allocations designed to stress the communication constraint.
  check_agreement(spec, alloc_of(spec, {"uP2", "D3"}));      // no bus
  check_agreement(spec, alloc_of(spec, {"uP2", "U2", "D3", "C1"}));
  check_agreement(spec, alloc_of(spec, {"uP1", "uP2"}));     // disconnected
}

TEST(SolverCompleteness, AllCommModels) {
  const SpecificationGraph& spec = settop();
  for (CommModel model :
       {CommModel::kDirectOnly, CommModel::kOneHopBus, CommModel::kAnyPath}) {
    SolverOptions options;
    options.comm_model = model;
    check_agreement(spec, alloc_of(spec, {"uP2", "A1", "C1", "C2", "D3"}),
                    options);
  }
}

TEST(SolverCompleteness, WithoutTimingFilter) {
  SolverOptions options;
  options.utilization_bound = 0.0;
  check_agreement(settop(), alloc_of(settop(), {"uP2"}), options);
  check_agreement(settop(), alloc_of(settop(), {"uP2", "A1", "C2"}), options);
}

TEST(Enumeration, CountsFeasibleBindings) {
  // TV activation (gD1, gU1) on the full platform: Pd1 has 4 allocated
  // targets (uP2, A1 via C2...) etc.; the count must be stable.
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const AllocSet alloc = alloc_of(spec, {"uP2", "A1", "C2"});
  Eca eca;
  for (const char* c : {"gD", "gD1", "gU1"}) {
    eca.selection.select(spec.problem(), spec.problem().find_cluster(c));
    eca.clusters.push_back(spec.problem().find_cluster(c));
  }
  const BindingEnumeration all = enumerate_bindings(cs, alloc, eca);
  // Domains: Pa{uP2} PcD{uP2} Pd1{uP2,A1} Pu1{uP2,A1}: 4 assignments, all
  // communication-feasible via C2 and utilization-feasible.
  EXPECT_EQ(all.assignments, 4u);
  EXPECT_EQ(all.feasible.size(), 4u);
  EXPECT_FALSE(all.truncated);
}

TEST(Enumeration, CapTruncates) {
  const SpecificationGraph& spec = settop();
  const AllocSet alloc = alloc_of(spec, {"uP2", "A1", "C2"});
  Eca eca;
  for (const char* c : {"gD", "gD1", "gU1"}) {
    eca.selection.select(spec.problem(), spec.problem().find_cluster(c));
    eca.clusters.push_back(spec.problem().find_cluster(c));
  }
  const BindingEnumeration capped =
      enumerate_bindings(spec.compiled(), alloc, eca, {}, 2);
  EXPECT_EQ(capped.feasible.size(), 2u);
  EXPECT_TRUE(capped.truncated);
}

TEST(Enumeration, EmptyDomainShortCircuits) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  // gD3 requires the D3 configuration; without it no assignment exists.
  const AllocSet alloc = alloc_of(spec, {"uP2"});
  Eca eca;
  for (const char* c : {"gD", "gD3", "gU1"}) {
    eca.selection.select(spec.problem(), spec.problem().find_cluster(c));
    eca.clusters.push_back(spec.problem().find_cluster(c));
  }
  const BindingEnumeration all = enumerate_bindings(cs, alloc, eca);
  EXPECT_EQ(all.assignments, 0u);
  EXPECT_TRUE(all.feasible.empty());
}

class SolverCompletenessSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SolverCompletenessSweep, SyntheticSpecsAgree) {
  GeneratorParams params;
  params.seed = GetParam();
  params.applications = 2;
  params.processors = 2;
  params.accelerators = 1;
  params.fpga_configs = 1;
  params.processes_per_app_max = 3;
  const SpecificationGraph spec = generate_spec(params);

  // Check a few allocations: each single processor, and the full platform.
  AllocSet full = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) full.set(i);
  check_agreement(spec, full);
  for (const AllocUnit& u : spec.alloc_units()) {
    if (u.is_comm || u.is_cluster_unit()) continue;
    AllocSet single = spec.make_alloc_set();
    single.set(u.id.index());
    check_agreement(spec, single);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCompletenessSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sdf
