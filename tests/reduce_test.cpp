// Tests for graph filtering, specification reduction (§4), budget queries
// and the JSON exploration report.
#include <gtest/gtest.h>

#include "explore/queries.hpp"
#include "explore/report.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "gen/spec_generator.hpp"
#include "graph/filter.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "flex/reduce.hpp"
#include "util/rng.hpp"

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

// ---- filter_graph ------------------------------------------------------------

TEST(FilterGraph, KeepEverythingIsIdentityUpToIds) {
  const HierarchicalGraph& g = settop().problem();
  const FilterResult r = filter_graph(g, [](const Node&) { return true; });
  EXPECT_EQ(r.graph.node_count(), g.node_count());
  EXPECT_EQ(r.graph.edge_count(), g.edge_count());
  EXPECT_EQ(r.graph.cluster_count(), g.cluster_count());
  EXPECT_EQ(max_flexibility(r.graph), max_flexibility(g));
  // Names survive.
  EXPECT_TRUE(r.graph.find_node("Pd3").valid());
  EXPECT_TRUE(r.graph.find_cluster("gU2").valid());
}

TEST(FilterGraph, DroppedVertexTakesItsEdges) {
  const HierarchicalGraph& g = settop().problem();
  const FilterResult r = filter_graph(
      g, [&](const Node& n) { return n.name != "Pp"; });
  EXPECT_EQ(r.graph.node_count(), g.node_count() - 1);
  // Both edges PcI->Pp and Pp->Pf are gone.
  EXPECT_EQ(r.graph.edge_count(), g.edge_count() - 2);
  EXPECT_FALSE(r.node_map[g.find_node("Pp").index()].valid());
  EXPECT_TRUE(r.node_map[g.find_node("PcI").index()].valid());
}

TEST(FilterGraph, DroppedInterfaceTakesSubtree) {
  const HierarchicalGraph& g = settop().problem();
  const FilterResult r = filter_graph(
      g, [&](const Node& n) { return n.name != "IG"; });
  EXPECT_FALSE(r.graph.find_node("Pg1").valid());
  EXPECT_FALSE(r.graph.find_cluster("gG2").valid());
  EXPECT_TRUE(r.graph.find_node("PcG").valid());
}

TEST(FilterGraph, ClusterPredicateDropsAlternatives) {
  const HierarchicalGraph& g = settop().problem();
  const FilterResult r = filter_graph(
      g, [](const Node&) { return true; },
      [](const Cluster& c) { return c.name != "gD3"; });
  EXPECT_FALSE(r.graph.find_cluster("gD3").valid());
  EXPECT_FALSE(r.graph.find_node("Pd3").valid());
  EXPECT_EQ(max_flexibility(r.graph), 7.0);
}

TEST(FilterGraph, AttributesSurvive) {
  const HierarchicalGraph& g = settop().problem();
  const FilterResult r = filter_graph(g, [](const Node&) { return true; });
  EXPECT_EQ(r.graph.attr_or(r.graph.find_node("Pd"), attr::kPeriod, 0.0),
            240.0);
}

// ---- reduce_specification -------------------------------------------------------

TEST(ReduceSpec, Up2ReductionMatchesPaperDescription) {
  const SpecificationGraph& spec = settop();
  const SpecificationGraph reduced =
      reduce_specification(spec, alloc_of(spec, {"uP2"}));

  // Architecture: only uP2 remains.
  EXPECT_EQ(reduced.alloc_units().size(), 1u);
  EXPECT_EQ(reduced.alloc_units()[0].name, "uP2");
  // Problem: vertices with no incident mapping edge are gone.
  EXPECT_FALSE(reduced.problem().find_node("Pg2").valid());
  EXPECT_FALSE(reduced.problem().find_node("Pd3").valid());
  EXPECT_FALSE(reduced.problem().find_node("Pu2").valid());
  EXPECT_TRUE(reduced.problem().find_node("Pg1").valid());
  EXPECT_TRUE(reduced.problem().find_node("Pd1").valid());
  // Mapping edges only into uP2.
  for (const MappingEdge& m : reduced.mappings())
    EXPECT_EQ(reduced.architecture().node(m.resource).name, "uP2");
  EXPECT_TRUE(reduced.validate().ok());
}

TEST(ReduceSpec, EstimateOnReductionEqualsEstimateOnOriginal) {
  // The paper computes the flexibility estimate on the reduced graph; both
  // routes must agree for any allocation.
  const SpecificationGraph& spec = settop();
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    AllocSet a = spec.make_alloc_set();
    for (std::size_t i = 0; i < spec.alloc_units().size(); ++i)
      if (rng.chance(0.4)) a.set(i);
    const auto direct = estimate_flexibility(spec.compiled(), a);
    // The documented guarantee covers possible resource allocations; for
    // non-PRA allocations the reduction drops the uncoverable top level,
    // which has no meaningful estimate of its own.
    if (!direct.has_value()) continue;
    const SpecificationGraph reduced = reduce_specification(spec, a);
    // On the reduction, the estimate uses the full (remaining) universe.
    AllocSet all = reduced.make_alloc_set();
    for (std::size_t i = 0; i < reduced.alloc_units().size(); ++i)
      all.set(i);
    ASSERT_FALSE(reduced.alloc_units().empty());
    const auto via_reduction = estimate_flexibility(reduced.compiled(), all);
    ASSERT_TRUE(via_reduction.has_value()) << spec.allocation_names(a);
    EXPECT_EQ(*direct, *via_reduction) << spec.allocation_names(a);
    EXPECT_EQ(max_flexibility(reduced.problem()), *direct)
        << spec.allocation_names(a);
  }
}

TEST(ReduceSpec, ConfigurationsReduceAtUnitGranularity) {
  const SpecificationGraph& spec = settop();
  const SpecificationGraph reduced =
      reduce_specification(spec, alloc_of(spec, {"uP2", "D3", "C1"}));
  // FPGA survives with exactly the D3 configuration.
  const NodeId fpga = reduced.architecture().find_node("FPGA");
  ASSERT_TRUE(fpga.valid());
  EXPECT_EQ(reduced.architecture().node(fpga).clusters.size(), 1u);
  EXPECT_TRUE(reduced.architecture().find_cluster("D3").valid());
  EXPECT_FALSE(reduced.architecture().find_cluster("G1").valid());
  // Pd3 keeps its mapping; Pg1's G1 mapping is gone but uP2 remains.
  EXPECT_TRUE(reduced.problem().find_node("Pd3").valid());
  EXPECT_EQ(
      reduced.compiled().mappings_of(reduced.problem().find_node("Pg1")).size(),
      1u);
}

TEST(ReduceSpec, EmptyAllocationReducesToNothingUseful) {
  const SpecificationGraph& spec = settop();
  const SpecificationGraph reduced =
      reduce_specification(spec, spec.make_alloc_set());
  EXPECT_EQ(reduced.alloc_units().size(), 0u);
  EXPECT_TRUE(reduced.mappings().empty());
  EXPECT_TRUE(reduced.problem().leaves().empty());
}

// ---- budget queries ---------------------------------------------------------------

TEST(Queries, MaxFlexibilityWithinBudget) {
  const SpecificationGraph& spec = settop();
  const auto under_200 = max_flexibility_within_budget(spec, 200.0);
  ASSERT_TRUE(under_200.has_value());
  EXPECT_EQ(under_200->flexibility, 3.0);
  EXPECT_EQ(under_200->cost, 120.0);

  const auto under_400 = max_flexibility_within_budget(spec, 400.0);
  ASSERT_TRUE(under_400.has_value());
  EXPECT_EQ(under_400->flexibility, 7.0);

  EXPECT_FALSE(max_flexibility_within_budget(spec, 50.0).has_value());
  // Exact-budget boundary included.
  EXPECT_EQ(max_flexibility_within_budget(spec, 100.0)->flexibility, 2.0);
}

TEST(Queries, MinCostForFlexibility) {
  const SpecificationGraph& spec = settop();
  EXPECT_EQ(min_cost_for_flexibility(spec, 4.0)->cost, 230.0);
  EXPECT_EQ(min_cost_for_flexibility(spec, 6.0)->cost, 360.0);  // jump to 7
  EXPECT_EQ(min_cost_for_flexibility(spec, 8.0)->cost, 430.0);
  EXPECT_FALSE(min_cost_for_flexibility(spec, 9.0).has_value());
  EXPECT_EQ(min_cost_for_flexibility(spec, 0.5)->cost, 100.0);
}

// ---- JSON report ---------------------------------------------------------------------

TEST(Report, JsonContainsFrontAndStats) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.collect_equivalents = true;
  const ExploreResult result = explore(spec, options);
  const Json doc = explore_result_to_json(spec, result);

  EXPECT_EQ(doc.string_or("specification", ""), "settop_box");
  EXPECT_EQ(doc.number_or("max_flexibility", 0), 8.0);
  const Json* front = doc.find("front");
  ASSERT_NE(front, nullptr);
  ASSERT_EQ(front->as_array().size(), 6u);
  const Json& last = front->as_array().back();
  EXPECT_EQ(last.number_or("cost", 0), 430.0);
  EXPECT_EQ(last.number_or("flexibility", 0), 8.0);
  EXPECT_EQ(last.find("resources")->as_array().size(), 5u);
  EXPECT_EQ(last.find("clusters")->as_array().size(), 9u);
  // Equivalents present on the $230 point.
  EXPECT_NE(front->as_array()[2].find("equivalents"), nullptr);

  const Json* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("universe", 0), 13.0);
  EXPECT_GT(stats->number_or("solver_calls", 0), 0.0);

  // The document is valid JSON end-to-end.
  EXPECT_TRUE(Json::parse(doc.dump()).ok());
}

}  // namespace
}  // namespace sdf
