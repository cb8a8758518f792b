// Tests for resource-capacity constraints (kCapacity / kFootprint).
#include <gtest/gtest.h>

#include "bind/enumerate.hpp"
#include "bind/solver.hpp"
#include "explore/explorer.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"

namespace sdf {
namespace {

/// Two parallel processes, each with footprint 60, on a platform with one
/// big CPU (capacity 150), one small CPU (capacity 100), and a bus.  With
/// `capacities` false the CPUs carry no capacity annotation: unlimited.
struct CapacityFixture {
  explicit CapacityFixture(bool capacities = true) {
    SpecBuilder b("capacity");
    a = b.process("a");
    c = b.process("c");
    b.depends(a, c);
    big = b.resource("big", 100.0);
    small = b.resource("small", 60.0);
    b.bus("bus", 5.0, {big, small});
    if (capacities) {
      b.spec().architecture().set_attr(big, attr::kCapacity, 150.0);
      b.spec().architecture().set_attr(small, attr::kCapacity, 100.0);
    }
    b.spec().problem().set_attr(a, attr::kFootprint, 60.0);
    b.spec().problem().set_attr(c, attr::kFootprint, 60.0);
    b.map(a, big, 10.0);
    b.map(a, small, 12.0);
    b.map(c, big, 10.0);
    b.map(c, small, 12.0);
    spec = b.build();
  }

  AllocSet all() const {
    AllocSet s = spec.make_alloc_set();
    for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) s.set(i);
    return s;
  }

  Eca whole() const {
    return Eca{};  // no interfaces: the root activation is the only ECA
  }

  NodeId a, c, big, small;
  SpecificationGraph spec{"capacity"};
};

TEST(Capacity, SolverSpreadsLoadAcrossUnits) {
  const CapacityFixture f;
  const CompiledSpec& cs = f.spec.compiled();
  // Both on "big" would need 120 <= 150: fine.  But both on "small" (100)
  // would not.  With both CPUs allocated a binding always exists.
  const auto binding = solve_binding(cs, f.all(), f.whole());
  ASSERT_TRUE(binding.has_value());
  const auto used = unit_footprints(cs, *binding);
  for (std::size_t i = 0; i < used.size(); ++i) {
    const double cap = cs.unit_capacity(AllocUnitId{i});
    if (cap > 0.0) EXPECT_LE(used[i], cap + 1e-9);
  }
}

TEST(Capacity, SmallCpuAloneInfeasible) {
  const CapacityFixture f;
  const CompiledSpec& cs = f.spec.compiled();
  AllocSet only_small = f.spec.make_alloc_set();
  only_small.set(f.spec.find_unit("small").index());
  // 60 + 60 = 120 > 100: no feasible binding.
  EXPECT_FALSE(solve_binding(cs, only_small, f.whole()).has_value());

  // Without the capacity annotations the same allocation is feasible.
  const CapacityFixture uncapped(false);
  EXPECT_TRUE(solve_binding(uncapped.spec.compiled(), only_small,
                            uncapped.whole())
                  .has_value());
}

TEST(Capacity, BigCpuAloneFeasible) {
  const CapacityFixture f;
  AllocSet only_big = f.spec.make_alloc_set();
  only_big.set(f.spec.find_unit("big").index());
  EXPECT_TRUE(
      solve_binding(f.spec.compiled(), only_big, f.whole()).has_value());
}

TEST(Capacity, EnumerationAgreesWithSolver) {
  const CapacityFixture f;
  const CompiledSpec& cs = f.spec.compiled();
  AllocSet only_small = f.spec.make_alloc_set();
  only_small.set(f.spec.find_unit("small").index());
  const BindingEnumeration none = enumerate_bindings(cs, only_small, f.whole());
  EXPECT_TRUE(none.feasible.empty());
  EXPECT_GT(none.assignments, 0u);  // assignments exist, all infeasible

  const BindingEnumeration some = enumerate_bindings(cs, f.all(), f.whole());
  EXPECT_FALSE(some.feasible.empty());
  // Every enumerated feasible binding respects capacities.
  for (const Binding& b : some.feasible) {
    const auto used = unit_footprints(cs, b);
    for (std::size_t i = 0; i < used.size(); ++i) {
      const double cap = cs.unit_capacity(AllocUnitId{i});
      if (cap > 0.0) EXPECT_LE(used[i], cap + 1e-9);
    }
  }
}

TEST(Capacity, ShapesTheParetoFront) {
  // Without capacities the cheap small CPU suffices; with them the
  // cheapest feasible platform must include the big CPU.
  const CapacityFixture f;
  const ExploreResult constrained = explore(f.spec);
  ASSERT_FALSE(constrained.front.empty());
  EXPECT_TRUE(constrained.front.front().units.test(
      f.spec.find_unit("big").index()));

  const CapacityFixture uncapped(false);
  const ExploreResult unconstrained = explore(uncapped.spec);
  ASSERT_FALSE(unconstrained.front.empty());
  EXPECT_LT(unconstrained.front.front().cost,
            constrained.front.front().cost);
}

TEST(Capacity, UnlimitedUnitsUnaffected) {
  // Units without a kCapacity annotation accept any footprint.
  SpecBuilder b("unlimited");
  const NodeId p1 = b.process("p1");
  const NodeId p2 = b.process("p2");
  const NodeId cpu = b.resource("cpu", 10.0);
  b.spec().problem().set_attr(p1, attr::kFootprint, 1e9);
  b.spec().problem().set_attr(p2, attr::kFootprint, 1e9);
  b.map(p1, cpu, 1.0);
  b.map(p2, cpu, 1.0);
  const SpecificationGraph spec = b.build();
  AllocSet all = spec.make_alloc_set();
  all.set(0);
  EXPECT_TRUE(solve_binding(spec.compiled(), all, Eca{}).has_value());
}

}  // namespace
}  // namespace sdf
