// Tests for behavior counting (§3's "possible interchanges") and execution
// profiles (§5's statistical timing analysis).
#include <gtest/gtest.h>

#include "bind/solver.hpp"
#include "flex/activatability.hpp"
#include "flex/interchange.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "sched/profile.hpp"
#include "sched/utilization.hpp"
#include "spec/builder.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

// ---- behavior_count ---------------------------------------------------------

TEST(BehaviorCount, SettopHasTenBehaviors) {
  // 1 (browser) + 3 (game classes) + 3*2 (decoder combos) = 10 complete
  // behaviors; Def. 4 gives 8 because it adds where products apply.
  const HierarchicalGraph& p = settop().problem();
  EXPECT_EQ(max_behavior_count(p), 10.0);
  EXPECT_EQ(max_flexibility(p), 8.0);
}

TEST(BehaviorCount, MatchesEcaEnumeration) {
  // The arithmetic count equals the size of the explicit ECA enumeration,
  // on the paper model and on synthetic specs.
  const SpecificationGraph& spec = settop();
  DynBitset all(spec.problem().cluster_count());
  for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
  EXPECT_EQ(behavior_count(spec.problem(), all),
            static_cast<double>(enumerate_ecas(spec.problem(), all).size()));

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    const SpecificationGraph s = generate_spec(params);
    DynBitset every(s.problem().cluster_count());
    for (std::size_t i = 0; i < every.size(); ++i) every.set(i);
    EXPECT_EQ(behavior_count(s.problem(), every),
              static_cast<double>(enumerate_ecas(s.problem(), every).size()))
        << "seed " << seed;
  }
}

TEST(BehaviorCount, RestrictedActivatability) {
  // Under the uP2-only allocation only 3 behaviors remain (gI; gG1;
  // gD1+gU1) — the §5 elementary activations.
  const SpecificationGraph& spec = settop();
  const Activatability act(spec.compiled(), [&] {
    AllocSet a = spec.make_alloc_set();
    a.set(spec.find_unit("uP2").index());
    return a;
  }());
  EXPECT_EQ(behavior_count(spec.problem(), act.clusters()), 3.0);
}

TEST(BehaviorCount, FlexibilityNeverExceedsBehaviors) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    const SpecificationGraph s = generate_spec(params);
    DynBitset every(s.problem().cluster_count());
    for (std::size_t i = 0; i < every.size(); ++i) every.set(i);
    EXPECT_LE(max_flexibility(s.problem()),
              behavior_count(s.problem(), every))
        << "seed " << seed;
  }
}

TEST(BehaviorCount, SingleInterfaceChainsMatchFlexibility) {
  // With at most one interface per cluster the correction term of Def. 4
  // vanishes and both metrics coincide.
  SpecBuilder b("chain");
  const NodeId cpu = b.resource("cpu", 1.0);
  const NodeId top = b.interface("top");
  for (int i = 0; i < 3; ++i) {
    const ClusterId c = b.alternative(top, "c" + std::to_string(i));
    const NodeId p = b.process("p" + std::to_string(i), c);
    b.map(p, cpu, 1.0);
  }
  const SpecificationGraph spec = b.build();
  EXPECT_EQ(max_behavior_count(spec.problem()),
            max_flexibility(spec.problem()));
}

TEST(BehaviorCount, DeadInterfaceZeroesTheCluster) {
  const HierarchicalGraph& p = settop().problem();
  // No decryptor activatable -> the TV cluster contributes no behavior.
  const double count = behavior_count(p, [&](ClusterId c) {
    const std::string& name = p.cluster(c).name;
    return name != "gD1" && name != "gD2" && name != "gD3";
  });
  EXPECT_EQ(count, 4.0);  // 1 browser + 3 game classes
}

// ---- execution profiles --------------------------------------------------------

TEST(ExecutionProfile, DefaultsToOneCallPerPeriod) {
  const ExecutionProfile profile;
  EXPECT_EQ(profile.calls_per_period(NodeId{3u}), 1.0);
}

TEST(ExecutionProfile, ProfiledUtilizationMatchesPaperReasoning) {
  // Bind the TV activation on uP2 *without* the built-in negligible
  // weights, then supply the §5 statistics as a profile: the authentication
  // runs once at start-up (0 calls/period), the controller at 0.01%.
  SpecificationGraph spec = models::make_settop_spec();
  HierarchicalGraph& p = spec.problem();
  // Make Pa/PcD timing-relevant so the profile is what excludes them.
  p.set_attr(p.find_node("Pa"), attr::kTimingWeight, 1.0);
  p.set_attr(p.find_node("Pa"), attr::kPeriod, 300.0);
  p.set_attr(p.find_node("PcD"), attr::kTimingWeight, 1.0);
  p.set_attr(p.find_node("PcD"), attr::kPeriod, 300.0);

  AllocSet alloc = spec.make_alloc_set();
  alloc.set(spec.find_unit("uP2").index());
  Eca eca;
  for (const char* c : {"gD", "gD1", "gU1"}) {
    eca.selection.select(p, p.find_cluster(c));
    eca.clusters.push_back(p.find_cluster(c));
  }
  SolverOptions no_timing;
  no_timing.utilization_bound = 0.0;
  const auto binding = solve_binding(spec.compiled(), alloc, eca, no_timing);
  ASSERT_TRUE(binding.has_value());

  // Unprofiled: Pa + PcD + Pd1 + Pu1 all charge the CPU.
  const auto raw = unit_utilizations(spec.compiled(), *binding);
  EXPECT_NEAR(raw[spec.find_unit("uP2").index()],
              (60.0 + 10.0 + 95.0 + 45.0) / 300.0, 1e-9);

  ExecutionProfile profile;
  profile.set_calls_per_period(p.find_node("Pa"), 0.0);      // start-up only
  profile.set_calls_per_period(p.find_node("PcD"), 0.0001);  // 0.01%
  const auto profiled = profiled_utilizations(spec, *binding, profile);
  EXPECT_NEAR(profiled[spec.find_unit("uP2").index()],
              (0.0001 * 10.0 + 95.0 + 45.0) / 300.0, 1e-9);
  // The profiled estimate reproduces the paper's accept decision.
  EXPECT_LE(profiled[spec.find_unit("uP2").index()], kUtilizationBound69);
}

TEST(ExecutionProfile, ApplyWritesWeights) {
  SpecificationGraph spec = models::make_settop_spec();
  ExecutionProfile profile;
  profile.set_calls_per_period(spec.problem().find_node("Pd1"), 2.0);
  profile.apply(spec);
  EXPECT_EQ(spec.problem().attr_or(spec.problem().find_node("Pd1"),
                                   attr::kTimingWeight, 1.0),
            2.0);
}

}  // namespace
}  // namespace sdf
