// Tests for the flexibility metric (Def. 4) and flexibility estimation (§4).
//
// The ground truth comes from the paper's own worked example (Fig. 3):
// maximal flexibility of the Set-Top problem graph is 8; removing the game
// cluster gG drops it to 5.  The estimation values for case-study
// allocations come from §5 (f = 3 for the uP2-only allocation).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/builder.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

/// a+ predicate activating everything except the named clusters.
ActivationPredicate all_but(const HierarchicalGraph& g,
                            std::set<std::string> excluded) {
  return [&g, excluded = std::move(excluded)](ClusterId c) {
    return !excluded.contains(g.cluster(c).name);
  };
}

TEST(Flexibility, Fig3MaximumIsEight) {
  EXPECT_EQ(max_flexibility(settop().problem()), 8.0);
}

TEST(Flexibility, Fig3WithoutGameIsFive) {
  // "If, e.g., cluster gG is not used in future implementations the
  // flexibility will decrease to f(G_P) = 5."
  const HierarchicalGraph& p = settop().problem();
  EXPECT_EQ(flexibility(p, all_but(p, {"gG"})), 5.0);
}

TEST(Flexibility, PaperFrontValues) {
  // Each row of the §5 results table is a cluster set with a published f.
  const HierarchicalGraph& p = settop().problem();
  // Row 1: gI, gD1, gU1 (plus their containers gD).
  auto only = [&](std::set<std::string> names) {
    return [&p, names = std::move(names)](ClusterId c) {
      return names.contains(p.cluster(c).name);
    };
  };
  EXPECT_EQ(flexibility(p, only({"gI", "gD", "gD1", "gU1"})), 2.0);
  EXPECT_EQ(flexibility(p, only({"gI", "gG", "gG1", "gD", "gD1", "gU1"})),
            3.0);
  EXPECT_EQ(
      flexibility(p, only({"gI", "gG", "gG1", "gD", "gD1", "gU1", "gU2"})),
      4.0);
  EXPECT_EQ(flexibility(p, only({"gI", "gG", "gG1", "gD", "gD1", "gD3",
                                 "gU1", "gU2"})),
            5.0);
  EXPECT_EQ(flexibility(p, only({"gI", "gG", "gG1", "gG2", "gG3", "gD", "gD1",
                                 "gD2", "gU1", "gU2"})),
            7.0);
  EXPECT_EQ(flexibility(p, only({"gI", "gG", "gG1", "gG2", "gG3", "gD", "gD1",
                                 "gD2", "gD3", "gU1", "gU2"})),
            8.0);
}

TEST(Flexibility, LeafClusterCountsOne) {
  SpecBuilder b("one");
  const NodeId iface = b.interface("i");
  const ClusterId c = b.alternative(iface, "c");
  const NodeId p = b.process("p", c);
  const NodeId cpu = b.resource("cpu", 1.0);
  b.map(p, cpu, 1.0);
  const SpecificationGraph spec = b.build();
  EXPECT_EQ(max_flexibility(spec.problem()), 1.0);
}

TEST(Flexibility, GrowsWithAlternatives) {
  // "the flexibility of a trivial system with just one activated interface
  // directly increases with the number of activatable clusters."
  for (int k = 1; k <= 5; ++k) {
    SpecBuilder b("trivial");
    const NodeId iface = b.interface("i");
    const NodeId cpu = b.resource("cpu", 1.0);
    for (int i = 0; i < k; ++i) {
      const ClusterId c = b.alternative(iface, "c" + std::to_string(i));
      const NodeId p = b.process("p" + std::to_string(i), c);
      b.map(p, cpu, 1.0);
    }
    EXPECT_EQ(max_flexibility(b.build().problem()), static_cast<double>(k));
  }
}

TEST(Flexibility, InterfaceCorrectionTerm) {
  // A cluster with two interfaces of 3 and 2 alternatives has
  // f = (3 + 2) - (2 - 1) = 4  (the gD subtree of Fig. 3).
  const HierarchicalGraph& p = settop().problem();
  EXPECT_EQ(flexibility(p, p.find_cluster("gD"),
                        [](ClusterId) { return true; }),
            4.0);
  EXPECT_EQ(flexibility(p, p.find_cluster("gG"),
                        [](ClusterId) { return true; }),
            3.0);
  EXPECT_EQ(flexibility(p, p.find_cluster("gI"),
                        [](ClusterId) { return true; }),
            1.0);
}

TEST(Flexibility, InactiveClusterIsZero) {
  const HierarchicalGraph& p = settop().problem();
  EXPECT_EQ(flexibility(p, p.find_cluster("gD"),
                        [](ClusterId) { return false; }),
            0.0);
}

TEST(Flexibility, BitsetOverloadMatchesPredicate) {
  const HierarchicalGraph& p = settop().problem();
  DynBitset all(p.cluster_count());
  for (std::size_t i = 0; i < p.cluster_count(); ++i) all.set(i);
  EXPECT_EQ(flexibility(p, all), 8.0);
  all.reset(p.find_cluster("gG").index());
  EXPECT_EQ(flexibility(p, all), 5.0);
}

TEST(WeightedFlexibility, DefaultWeightsMatchPlain) {
  const HierarchicalGraph& p = settop().problem();
  EXPECT_EQ(weighted_flexibility(p, [](ClusterId) { return true; }), 8.0);
}

TEST(WeightedFlexibility, WeightsScaleLeafContributions) {
  SpecBuilder b("weighted");
  const NodeId iface = b.interface("i");
  const NodeId cpu = b.resource("cpu", 1.0);
  const ClusterId c1 = b.alternative(iface, "c1");
  const ClusterId c2 = b.alternative(iface, "c2");
  const NodeId p1 = b.process("p1", c1);
  const NodeId p2 = b.process("p2", c2);
  b.map(p1, cpu, 1.0);
  b.map(p2, cpu, 1.0);
  SpecificationGraph spec = b.build();
  spec.problem().set_attr(spec.problem().find_cluster("c1"), kFlexWeightAttr,
                          3.0);
  EXPECT_EQ(weighted_flexibility(spec.problem(),
                                 [](ClusterId) { return true; }),
            4.0);  // 3 + 1
}

// ---- activatability / estimation ------------------------------------------------

AllocSet alloc_of(const SpecificationGraph& spec,
                  std::initializer_list<const char*> names) {
  AllocSet a = spec.make_alloc_set();
  for (const char* n : names) {
    const AllocUnitId u = spec.find_unit(n);
    EXPECT_TRUE(u.valid()) << n;
    a.set(u.index());
  }
  return a;
}

TEST(Activatability, Up2AloneEstimatesThree) {
  // §5: for the first resource allocation (uP2) the estimated flexibility
  // is f_impl = 3 (gI + gG1 + gD1/gU1).
  const SpecificationGraph& spec = settop();
  const Activatability act(spec.compiled(), alloc_of(spec, {"uP2"}));
  EXPECT_TRUE(act.root_activatable());
  EXPECT_EQ(act.estimated_flexibility(), 3.0);
  const HierarchicalGraph& p = spec.problem();
  EXPECT_TRUE(act.activatable(p.find_cluster("gI")));
  EXPECT_TRUE(act.activatable(p.find_cluster("gG1")));
  EXPECT_TRUE(act.activatable(p.find_cluster("gD1")));
  EXPECT_TRUE(act.activatable(p.find_cluster("gU1")));
  EXPECT_FALSE(act.activatable(p.find_cluster("gG2")));
  EXPECT_FALSE(act.activatable(p.find_cluster("gD2")));
  EXPECT_FALSE(act.activatable(p.find_cluster("gD3")));
  EXPECT_FALSE(act.activatable(p.find_cluster("gU2")));
}

TEST(Activatability, EstimateIgnoresCommunicationAndTiming) {
  // The estimate is reachability-only: uP2 + U2 estimates 4 even though
  // without a bus the configuration is unusable in any feasible binding.
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  EXPECT_EQ(estimate_flexibility(cs, alloc_of(spec, {"uP2", "U2"})), 4.0);
}

TEST(Activatability, FullUniverseEstimatesMaximum) {
  const SpecificationGraph& spec = settop();
  AllocSet all = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
  EXPECT_EQ(estimate_flexibility(spec.compiled(), all), 8.0);
}

TEST(Activatability, EmptyAllocationIsNotPossible) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  EXPECT_FALSE(is_possible_allocation(cs, spec.make_alloc_set()));
  EXPECT_EQ(estimate_flexibility(cs, spec.make_alloc_set()), std::nullopt);
}

TEST(Activatability, AsicAloneIsNotPossible) {
  // Controllers only run on processors; an ASIC alone covers no complete
  // application.
  const SpecificationGraph& spec = settop();
  EXPECT_FALSE(is_possible_allocation(spec.compiled(), alloc_of(spec, {"A1"})));
}

TEST(Activatability, MonotoneInAllocation) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const AllocSet small = alloc_of(spec, {"uP2"});
  AllocSet big = small;
  big.set(spec.find_unit("A1").index());
  big.set(spec.find_unit("D3").index());
  const double f_small = estimate_flexibility(cs, small).value();
  const double f_big = estimate_flexibility(cs, big).value();
  EXPECT_GE(f_big, f_small);
}

TEST(Activatability, InterfaceWithNoActivatableClusterKillsParent) {
  // An allocation covering the game app but no decryption cluster cannot
  // activate the TV cluster at all; and because every application is an
  // alternative of the same top interface, the root stays activatable via
  // the game.
  SpecBuilder b("partial");
  const NodeId iface = b.interface("apps");
  const ClusterId app1 = b.alternative(iface, "app1");
  const NodeId p1 = b.process("p1", app1);
  const ClusterId app2 = b.alternative(iface, "app2");
  const NodeId p2 = b.process("p2", app2);
  const NodeId cpu = b.resource("cpu", 10.0);
  const NodeId acc = b.resource("acc", 10.0);
  b.map(p1, cpu, 1.0);
  b.map(p2, acc, 1.0);
  const SpecificationGraph spec = b.build();

  const Activatability act(spec.compiled(), alloc_of(spec, {"cpu"}));
  EXPECT_TRUE(act.root_activatable());
  EXPECT_TRUE(act.activatable(spec.problem().find_cluster("app1")));
  EXPECT_FALSE(act.activatable(spec.problem().find_cluster("app2")));
  EXPECT_EQ(act.estimated_flexibility(), 1.0);
}

}  // namespace
}  // namespace sdf
