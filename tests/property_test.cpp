// Property-based tests: invariants that must hold on randomly generated
// specifications, allocations and selections, swept over seeds.
#include <gtest/gtest.h>

#include "activation/activation_state.hpp"
#include "bind/implementation.hpp"
#include "bind/solver.hpp"
#include "explore/explorer.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "gen/spec_generator.hpp"
#include "graph/traversal.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

SpecificationGraph make_spec(std::uint64_t seed) {
  GeneratorParams params;
  params.seed = seed;
  params.applications = 2 + seed % 3;
  params.accelerators = 1 + seed % 2;
  params.fpga_configs = 1 + seed % 2;
  return generate_spec(params);
}

AllocSet random_alloc(const SpecificationGraph& spec, Rng& rng,
                      double density) {
  AllocSet a = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i)
    if (rng.chance(density)) a.set(i);
  return a;
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

// ---- flexibility estimation ------------------------------------------------------

TEST_P(PropertySweep, EstimateUpperBoundsImplementedFlexibility) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  Rng rng(GetParam() * 77 + 1);
  for (int trial = 0; trial < 12; ++trial) {
    const AllocSet a = random_alloc(spec, rng, 0.5);
    const std::optional<double> est = estimate_flexibility(cs, a);
    const std::optional<Implementation> impl = build_implementation(cs, a);
    if (impl.has_value()) {
      ASSERT_TRUE(est.has_value());
      EXPECT_GE(*est, impl->flexibility)
          << spec.allocation_names(a);
    }
    // No estimate => no possible activation => no implementation.
    if (!est.has_value()) EXPECT_FALSE(impl.has_value());
  }
}

TEST_P(PropertySweep, EstimateMonotoneUnderUnitAddition) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 12; ++trial) {
    const AllocSet small = random_alloc(spec, rng, 0.3);
    AllocSet big = small;
    for (std::size_t i = 0; i < spec.alloc_units().size(); ++i)
      if (rng.chance(0.3)) big.set(i);
    const auto f_small = estimate_flexibility(cs, small);
    const auto f_big = estimate_flexibility(cs, big);
    if (f_small.has_value()) {
      ASSERT_TRUE(f_big.has_value());
      EXPECT_GE(*f_big, *f_small);
    }
  }
}

TEST_P(PropertySweep, MaxFlexibilityIsFullUniverseEstimate) {
  const SpecificationGraph spec = make_spec(GetParam());
  AllocSet all = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
  EXPECT_EQ(estimate_flexibility(spec.compiled(), all).value(),
            max_flexibility(spec.problem()));
}

// ---- implementations --------------------------------------------------------------

TEST_P(PropertySweep, ImplementationsAreInternallyConsistent) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  Rng rng(GetParam() * 13 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    const AllocSet a = random_alloc(spec, rng, 0.6);
    const std::optional<Implementation> impl = build_implementation(cs, a);
    if (!impl.has_value()) continue;
    // Cost matches the allocation-cost model.
    EXPECT_EQ(impl->cost, cs.allocation_cost(a));
    // Flexibility is Def. 4 over the implemented clusters.
    EXPECT_EQ(impl->flexibility,
              flexibility(spec.problem(), impl->implemented_clusters));
    // Every feasible ECA's binding passes the feasibility rules.
    for (const FeasibleEca& fe : impl->ecas) {
      const FlatGraph flat =
          flatten(spec.problem(), fe.eca.selection).value();
      EXPECT_TRUE(check_binding(cs, a, flat, fe.binding).ok());
      // All clusters of the ECA are marked implemented.
      for (ClusterId c : fe.eca.clusters)
        EXPECT_TRUE(impl->implemented_clusters.test(c.index()));
    }
  }
}

TEST_P(PropertySweep, ExploreFrontPointsAreFeasibleAndOrdered) {
  const SpecificationGraph spec = make_spec(GetParam());
  const ExploreResult result = explore(spec);
  double prev_cost = -1.0, prev_f = 0.0;
  for (const Implementation& impl : result.front) {
    EXPECT_GT(impl.cost, prev_cost);
    EXPECT_GT(impl.flexibility, prev_f);
    prev_cost = impl.cost;
    prev_f = impl.flexibility;
    EXPECT_LE(impl.flexibility, result.max_flexibility);
    EXPECT_FALSE(impl.ecas.empty());
    // Re-constructing on the same allocation reproduces the flexibility.
    const auto again = build_implementation(spec.compiled(), impl.units);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->flexibility, impl.flexibility);
  }
}

TEST_P(PropertySweep, BranchBoundDoesNotChangeTheFront) {
  const SpecificationGraph spec = make_spec(GetParam());
  ExploreOptions with, without;
  without.use_branch_bound = false;
  const ExploreResult a = explore(spec, with);
  const ExploreResult b = explore(spec, without);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
  }
}

TEST_P(PropertySweep, DominanceFilterDoesNotChangeTheFront) {
  const SpecificationGraph spec = make_spec(GetParam());
  ExploreOptions with, without;
  without.prune_dominated_allocations = false;
  const ExploreResult a = explore(spec, with);
  const ExploreResult b = explore(spec, without);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
  }
}

// ---- activation / flattening --------------------------------------------------------

TEST_P(PropertySweep, RandomSelectionsSatisfyActivationRules) {
  const SpecificationGraph spec = make_spec(GetParam());
  const HierarchicalGraph& p = spec.problem();
  Rng rng(GetParam() * 101 + 9);
  for (int trial = 0; trial < 10; ++trial) {
    ClusterSelection sel;
    for (NodeId iface : p.all_interfaces()) {
      const auto& clusters = p.node(iface).clusters;
      if (!clusters.empty())
        sel.select(p, clusters[rng.pick_index(clusters)]);
    }
    const ActivationState state = ActivationState::from_selection(p, sel);
    EXPECT_TRUE(check_activation_rules(p, state).empty());

    // Flattened vertices are exactly the active non-hierarchical nodes.
    const Result<FlatGraph> flat = flatten(p, sel);
    ASSERT_TRUE(flat.ok()) << flat.error().message;
    for (NodeId v : flat.value().vertices) {
      EXPECT_TRUE(state.node_active(v));
      EXPECT_TRUE(p.is_leaf(v));
    }
    // And the flat graph of an acyclic spec is acyclic.
    EXPECT_TRUE(topological_order(flat.value()).has_value());
  }
}

// ---- serialization robustness --------------------------------------------------------

TEST_P(PropertySweep, SerializationRoundTripsExactly) {
  const SpecificationGraph spec = make_spec(GetParam());
  const Result<std::string> text = spec_to_string(spec);
  ASSERT_TRUE(text.ok());
  const Result<SpecificationGraph> back = spec_from_string(text.value());
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(spec_to_string(back.value()).value(), text.value());
  // The round-tripped spec explores to the identical front.
  const ExploreResult a = explore(spec);
  const ExploreResult b = explore(back.value());
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
  }
}

TEST_P(PropertySweep, ParserNeverCrashesOnMutatedInput) {
  const SpecificationGraph spec = make_spec(GetParam());
  std::string text = spec_to_string(spec).value();
  Rng rng(GetParam() * 997 + 5);
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = text;
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniform(mutated.size()));
      switch (rng.uniform(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.uniform(256)); break;
        case 1: mutated.erase(pos, 1); break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.uniform(128)));
      }
    }
    // Must return cleanly (ok or error), never crash or hang.
    (void)spec_from_string(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---- stress: a large universe stays bounded under the candidate cap ---------

TEST(Stress, LargeUniverseExploresUnderCap) {
  GeneratorParams params;
  params.seed = 31;
  params.applications = 6;
  params.processors = 3;
  params.accelerators = 4;
  params.fpga_configs = 4;
  params.interfaces_per_app_max = 2;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_GE(spec.alloc_units().size(), 15u);

  ExploreOptions options;
  options.budget.max_allocations = 20000;
  const ExploreResult result = explore(spec, options);
  EXPECT_LE(result.stats.candidates_generated, 20000u);
  // The front found so far is internally valid even when truncated.
  double prev_cost = -1.0, prev_f = 0.0;
  for (const Implementation& impl : result.front) {
    EXPECT_GT(impl.cost, prev_cost);
    EXPECT_GT(impl.flexibility, prev_f);
    prev_cost = impl.cost;
    prev_f = impl.flexibility;
  }
}

TEST(Stress, SolverHandlesWideEcas) {
  // A single activation with many processes and rich domains must solve
  // within a bounded number of search nodes (MRV keeps it near-linear on
  // loosely-constrained instances).
  GeneratorParams params;
  params.seed = 57;
  params.applications = 1;
  params.processes_per_app_min = 8;
  params.processes_per_app_max = 10;
  params.interfaces_per_app_max = 0;
  params.processors = 3;
  params.accelerators = 3;
  params.bus_density = 1.0;
  params.timed_app_prob = 0.0;
  const SpecificationGraph spec = generate_spec(params);

  AllocSet all = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
  Eca eca;
  eca.selection.select(spec.problem(), spec.problem().find_cluster("app0"));
  eca.clusters.push_back(spec.problem().find_cluster("app0"));
  SolverStats stats;
  const auto binding = solve_binding(spec.compiled(), all, eca, {}, &stats);
  ASSERT_TRUE(binding.has_value());
  EXPECT_LE(stats.nodes, 1000u);
}

}  // namespace
}  // namespace sdf
