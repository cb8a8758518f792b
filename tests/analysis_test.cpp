// Soundness tests for the static analyzer (src/analysis): the relaxation and
// the per-cluster cost intervals are checked against *exhaustive* ground
// truth — every allocation subset, every elementary activation, the raw
// solver — on generator seeds kept small enough to enumerate completely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "bind/implementation.hpp"
#include "bind/solver.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "graph/validate.hpp"
#include "spec/attributes.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/specification.hpp"

namespace sdf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-9;

/// Small enough that 2^unit_count allocation subsets are enumerable.
SpecificationGraph tiny_spec(std::uint64_t seed, bool with_capacities) {
  GeneratorParams params;
  params.seed = seed;
  params.applications = 1 + seed % 2;
  params.processes_per_app_min = 2;
  params.processes_per_app_max = 3;
  params.interfaces_per_app_max = 1;
  params.clusters_per_interface_min = 2;
  params.clusters_per_interface_max = 2;
  params.nested_interface_prob = 0.0;
  params.processors = 2 + seed % 2;
  params.accelerators = 2;
  params.fpga_configs = (seed % 2 == 0) ? 2 : 1;
  params.bus_density = 0.7;
  SpecificationGraph spec = generate_spec(params);
  if (with_capacities) {
    // Tight-but-not-trivial capacities: every process occupies 10 units of
    // space, every computation device holds 25 — three forced co-residents
    // overflow.  Annotated before compiled() is first built.
    for (NodeId p : spec.problem().leaves())
      if (spec.problem().node(p).kind == NodeKind::kVertex)
        spec.problem().set_attr(p, attr::kFootprint, 10.0);
    for (NodeId r : spec.architecture().leaves())
      if (spec.architecture().node(r).kind == NodeKind::kVertex &&
          spec.architecture().attr_or(r, attr::kComm, 0.0) == 0.0)
        spec.architecture().set_attr(r, attr::kCapacity, 25.0);
  }
  return spec;
}

ImplementationOptions ground_truth_options() {
  ImplementationOptions opts;
  opts.use_bind_cache = false;
  return opts;
}

class AnalysisSweep : public ::testing::TestWithParam<std::uint64_t> {};

// The relaxation never declares a truly feasible query infeasible: for
// every allocation subset and every elementary activation, a solver witness
// refutes any would-be proof.
TEST_P(AnalysisSweep, RelaxationNeverRefutesAFeasibleQuery) {
  for (const bool with_capacities : {false, true}) {
    const SpecificationGraph spec = tiny_spec(GetParam(), with_capacities);
    const CompiledSpec& cs = spec.compiled();
    ASSERT_LE(cs.unit_count(), 14u) << "seed grew beyond exhaustive range";
    const SpecAnalysis analysis(cs);
    const ImplementationOptions opts = ground_truth_options();

    const std::size_t n = cs.unit_count();
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
      AllocSet alloc = cs.make_alloc_set();
      for (std::size_t i = 0; i < n; ++i)
        if ((mask >> i) & 1u) alloc.set(i);

      const Activatability act(cs, alloc);
      if (!act.root_activatable()) continue;

      bool any_feasible = false;
      for (const Eca& eca :
           enumerate_ecas(spec.problem(), act.clusters())) {
        const bool solver_feasible =
            solve_binding(cs, alloc, eca, opts.solver).has_value();
        if (solver_feasible) {
          any_feasible = true;
          EXPECT_FALSE(analysis.eca_infeasible(alloc, cs.prepare(eca)))
              << "eca_infeasible refuted a solver witness, alloc="
              << spec.allocation_names(alloc);
        }
      }
      if (any_feasible) {
        EXPECT_FALSE(analysis.allocation_infeasible(alloc))
            << "allocation_infeasible refuted a feasible allocation "
            << spec.allocation_names(alloc);
      }
      // Cross-check against the full construction too: the two ground
      // truths must agree with each other.
      EXPECT_EQ(any_feasible,
                build_implementation(cs, alloc, opts).has_value());
    }
  }
}

// Every cost interval brackets the exact per-cluster optimum, computed by
// minimizing allocation cost over ALL subsets that activate the cluster.
TEST_P(AnalysisSweep, IntervalBracketsExactOptimum) {
  const SpecificationGraph spec = tiny_spec(GetParam(), false);
  const CompiledSpec& cs = spec.compiled();
  ASSERT_LE(cs.unit_count(), 14u);
  const SpecAnalysis analysis(cs);

  const std::size_t n = cs.unit_count();
  std::vector<double> opt(spec.problem().cluster_count(), kInf);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    AllocSet alloc = cs.make_alloc_set();
    for (std::size_t i = 0; i < n; ++i)
      if ((mask >> i) & 1u) alloc.set(i);
    const Activatability act(cs, alloc);
    const double cost = cs.allocation_cost(alloc);
    for (const Cluster& c : spec.problem().clusters())
      if (act.activatable(c.id) && cost < opt[c.id.index()])
        opt[c.id.index()] = cost;
  }

  for (const Cluster& c : spec.problem().clusters()) {
    const ClusterBounds& b = analysis.bounds(c.id);
    if (opt[c.id.index()] == kInf) {
      // No allocation activates the cluster; the analyzer must agree.
      EXPECT_FALSE(b.reachable()) << "cluster " << c.name;
      EXPECT_EQ(b.lo, kInf) << "cluster " << c.name;
      continue;
    }
    EXPECT_TRUE(b.reachable()) << "cluster " << c.name;
    EXPECT_LE(b.lo, opt[c.id.index()] + kTol) << "cluster " << c.name;
    EXPECT_GE(b.hi + kTol, opt[c.id.index()]) << "cluster " << c.name;
  }
}

// The hi / hi_cover witnesses are genuine: each witness activates its
// cluster (resp. every alternative of the spec), and its cost is the bound.
TEST_P(AnalysisSweep, WitnessesAreGenuine) {
  const SpecificationGraph spec = tiny_spec(GetParam(), false);
  const CompiledSpec& cs = spec.compiled();
  const SpecAnalysis analysis(cs);

  for (const Cluster& c : spec.problem().clusters()) {
    const ClusterBounds& b = analysis.bounds(c.id);
    if (b.reachable()) {
      EXPECT_NEAR(cs.allocation_cost(b.witness), b.hi, kTol);
      const Activatability act(cs, b.witness);
      EXPECT_TRUE(act.activatable(c.id)) << "cluster " << c.name;
      EXPECT_LE(b.lo, b.hi + kTol) << "cluster " << c.name;
    }
  }
  const ClusterBounds& root = analysis.root_bounds();
  if (root.hi_cover != kInf) {
    EXPECT_NEAR(cs.allocation_cost(root.witness_cover), root.hi_cover, kTol);
    // A finite whole-spec cover budget means every reachable cluster is
    // activatable under the cover witness simultaneously.
    const Activatability cover(cs, root.witness_cover);
    for (const Cluster& c : spec.problem().clusters()) {
      if (!analysis.bounds(c.id).reachable()) continue;
      EXPECT_TRUE(cover.activatable(c.id)) << "cluster " << c.name;
    }
    EXPECT_GE(root.hi_cover + kTol, root.hi);
  }
}

// Monotonicity in the allocation lattice: an infeasibility verdict for A
// must hold for every subset of A (this is what lets the preflight's
// verdict on the full allocation cover every allocation).
TEST_P(AnalysisSweep, InfeasibilityIsMonotone) {
  const SpecificationGraph spec = tiny_spec(GetParam(), true);
  const CompiledSpec& cs = spec.compiled();
  ASSERT_LE(cs.unit_count(), 14u);
  const SpecAnalysis analysis(cs);

  const std::size_t n = cs.unit_count();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    AllocSet alloc = cs.make_alloc_set();
    for (std::size_t i = 0; i < n; ++i)
      if ((mask >> i) & 1u) alloc.set(i);
    if (!analysis.allocation_infeasible(alloc)) continue;
    // Drop one unit at a time: still infeasible.
    for (std::size_t i = 0; i < n; ++i) {
      if (!alloc.test(i)) continue;
      AllocSet sub = alloc;
      sub.reset(i);
      EXPECT_TRUE(analysis.allocation_infeasible(sub))
          << "verdict lost on subset of " << spec.allocation_names(alloc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---- paper models ------------------------------------------------------------

TEST(Analysis, PaperModelBoundsAreConsistent) {
  for (const SpecificationGraph& spec :
       {models::make_settop_spec(), models::make_tv_decoder_spec()}) {
    const CompiledSpec& cs = spec.compiled();
    const SpecAnalysis analysis(cs);
    const ClusterBounds& root = analysis.root_bounds();
    EXPECT_TRUE(root.reachable());
    EXPECT_LE(root.lo, root.hi + kTol);
    EXPECT_LE(root.hi, root.hi_cover + kTol);
    AllocSet all = cs.make_alloc_set();
    for (std::size_t i = 0; i < cs.unit_count(); ++i) all.set(i);
    EXPECT_FALSE(analysis.allocation_infeasible(all));
  }
}

// ---- SDF017's exclusion covers -----------------------------------------------

/// The cover of every alternative outside `skip`'s subtree, each vertex on
/// its cheapest reachable unit, by one walk of the hierarchy per cluster:
/// the reference for `cover_costs_excluding`.
double reference_cover_cost_excluding(const CompiledSpec& cs, ClusterId skip) {
  const HierarchicalGraph& p = cs.problem();
  AllocSet cover = cs.make_alloc_set();
  const auto visit = [&](const auto& self, ClusterId cid) -> bool {
    if (cid == skip) return true;
    for (NodeId nid : p.cluster(cid).nodes) {
      const Node& n = p.node(nid);
      if (n.is_interface()) {
        bool any_child = false;
        for (ClusterId child : n.clusters) {
          if (child == skip) continue;
          any_child = true;
          if (!self(self, child)) return false;
        }
        if (!any_child) return false;  // `skip` was the only refinement
        continue;
      }
      double best_cost = kInf;
      std::size_t best = 0;
      for (AllocUnitId u : cs.reachable_unit_list(nid)) {
        const double cost = std::max(0.0, cs.unit(u).cost);
        if (cost < best_cost) {
          best_cost = cost;
          best = u.index();
        }
      }
      if (best_cost == kInf) return false;  // unmappable vertex
      cover.set(best);
    }
    return true;
  };
  if (!visit(visit, p.root())) return kInf;
  return cs.allocation_cost(cover);
}

void expect_cover_costs_match_reference(const SpecificationGraph& spec) {
  const CompiledSpec& cs = spec.compiled();
  const std::vector<double> got = SpecAnalysis(cs).cover_costs_excluding();
  ASSERT_EQ(got.size(), spec.problem().cluster_count());
  for (const Cluster& c : spec.problem().clusters())
    EXPECT_EQ(got[c.id.index()], reference_cover_cost_excluding(cs, c.id))
        << spec.name() << ": " << cluster_path(spec.problem(), c.id);
}

TEST(Analysis, CoverCostsMatchThePerClusterWalk) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    expect_cover_costs_match_reference(tiny_spec(seed, false));
  expect_cover_costs_match_reference(models::make_settop_spec());
  expect_cover_costs_match_reference(models::make_tv_decoder_spec());
  expect_cover_costs_match_reference(
      generate_preset(PlatformPreset::kNestedS, 1));
  expect_cover_costs_match_reference(
      generate_preset(PlatformPreset::kNestedM, 1));
}

// Defects each cover must see: an unmappable vertex, an interface without
// refinements, one whose only refinement is the excluded cluster, units
// chosen inside and outside a subtree, and a cluster outside the root's
// hierarchy.
TEST(Analysis, CoverCostsMatchThePerClusterWalkOnDefectiveSpecs) {
  for (int defect = 0; defect < 4; ++defect) {
    SpecBuilder b("defect" + std::to_string(defect));
    const NodeId r = b.resource("R", 10);
    const NodeId s = b.resource("S", 7);
    const NodeId t = b.resource("T", 3);
    b.map(b.process("P"), r, 1);
    const NodeId i = b.interface("I");
    const ClusterId a = b.alternative(i, "a");
    b.map(b.process("A1", a), s, 1);
    const NodeId inner = b.interface("Inner", a);
    const ClusterId only = b.alternative(inner, "only");
    b.map(b.process("O", only), t, 1);
    b.map(b.process("O2", only), r, 1);
    const ClusterId c = b.alternative(i, "c");
    b.map(b.process("C1", c), s, 1);
    if (defect == 1) b.process("Unmapped", c);
    if (defect == 2) b.interface("Empty", c);
    SpecificationGraph spec = b.spec();  // defective: not validated
    if (defect == 3) {
      // A cluster hung below a plain vertex: no walk from the root sees it.
      HierarchicalGraph& g = spec.problem();
      const ClusterId stray = g.add_cluster(g.find_node("P"), "stray");
      g.add_vertex(stray, "Stray");
    }
    expect_cover_costs_match_reference(spec);
  }
}

}  // namespace
}  // namespace sdf
