// Tests for the incremental (platform-upgrade) explorer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "gen/spec_generator.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/json.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

SpecificationGraph example(const std::string& name) {
  Result<SpecificationGraph> spec =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/" + name + ".json");
  SDF_CHECK(spec.ok(), ("cannot load example spec " + name).c_str());
  return std::move(spec).value();
}

/// The nine checkpointed counters in their checkpoint JSON form, so a
/// mismatch names every counter.
std::string counters_json(const ExploreStats& stats) {
  ExploreCheckpoint ck;
  ck.counters = checkpoint_counters(stats);
  return ck.to_json().find("counters")->dump();
}

AllocSet alloc_of(const SpecificationGraph& spec,
                  std::initializer_list<const char*> names) {
  AllocSet a = spec.make_alloc_set();
  for (const char* n : names) a.set(spec.find_unit(n).index());
  return a;
}

TEST(Incremental, BaselineFlexibilityReported) {
  const UpgradeResult r =
      explore_upgrades(settop(), alloc_of(settop(), {"uP2"}));
  EXPECT_EQ(r.baseline_flexibility, 2.0);
  EXPECT_EQ(r.max_flexibility, 8.0);
}

TEST(Incremental, UpgradePathFromUp2) {
  // Starting from the deployed $100 uP2 box, the cheapest upgrades retrace
  // the case-study front (uP2-rooted rows) at incremental prices.
  const SpecificationGraph& spec = settop();
  const UpgradeResult r = explore_upgrades(spec, alloc_of(spec, {"uP2"}));
  ASSERT_FALSE(r.front.empty());

  // Every step strictly improves flexibility over the baseline and costs
  // strictly more than the previous step.
  double last_cost = 0.0;
  double last_f = r.baseline_flexibility;
  for (const Upgrade& u : r.front) {
    EXPECT_GT(u.upgrade_cost, last_cost);
    EXPECT_GT(u.implementation.flexibility, last_f);
    last_cost = u.upgrade_cost;
    last_f = u.implementation.flexibility;
    // The upgrade keeps the existing platform.
    EXPECT_TRUE(u.implementation.units.test(spec.find_unit("uP2").index()));
  }
  // The path reaches full flexibility.
  EXPECT_EQ(r.front.back().implementation.flexibility, 8.0);
  // Known cheapest full upgrade from uP2: A1 + C2 + D3 + C1 = 330.
  EXPECT_EQ(r.front.back().upgrade_cost, 330.0);
}

TEST(Incremental, UpgradeCostIsDifferenceOfAllocationCosts) {
  const SpecificationGraph& spec = settop();
  const UpgradeResult r = explore_upgrades(spec, alloc_of(spec, {"uP2"}));
  for (const Upgrade& u : r.front) {
    EXPECT_NEAR(u.upgrade_cost,
                spec.allocation_cost(u.implementation.units) - 100.0, 1e-9);
  }
}

TEST(Incremental, DifferentBaselinesDifferentPaths) {
  const SpecificationGraph& spec = settop();
  const UpgradeResult from_up1 =
      explore_upgrades(spec, alloc_of(spec, {"uP1"}));
  EXPECT_EQ(from_up1.baseline_flexibility, 3.0);
  ASSERT_FALSE(from_up1.front.empty());
  // uP1 has no ASIC bus, so reaching f=8 requires buying uP2 as well — the
  // full upgrade is more expensive than uP2's 330.
  EXPECT_EQ(from_up1.front.back().implementation.flexibility, 8.0);
  EXPECT_GT(from_up1.front.back().upgrade_cost, 330.0);
}

TEST(Incremental, FullPlatformHasNoUpgrades) {
  const SpecificationGraph& spec = settop();
  AllocSet all = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
  const UpgradeResult r = explore_upgrades(spec, all);
  EXPECT_EQ(r.baseline_flexibility, 8.0);
  EXPECT_TRUE(r.front.empty());
}

TEST(Incremental, EmptyBaselineMatchesPlainExploreFront) {
  // Upgrading from nothing is ordinary exploration on the same engine: the
  // same front, work counters, stop reason and certificate, with and
  // without a budget.
  std::vector<RunBudget> budgets(5);
  budgets[1].max_allocations = 20;
  budgets[2].max_allocations = 60;
  budgets[3].max_solver_nodes = 5;
  budgets[4].max_solver_nodes = 40;
  for (const char* name : {"settop", "decoder", "nested"}) {
    const SpecificationGraph spec = example(name);
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      SCOPED_TRACE(std::string(name) + " budget " + std::to_string(b));
      ExploreOptions options;
      options.budget = budgets[b];
      const UpgradeResult up =
          explore_upgrades(spec, spec.make_alloc_set(), options);
      const ExploreResult plain = explore(spec, options);
      ASSERT_TRUE(up.status.ok()) << up.status.error().message;
      ASSERT_EQ(up.front.size(), plain.front.size());
      for (std::size_t i = 0; i < up.front.size(); ++i) {
        EXPECT_TRUE(up.front[i].implementation.units == plain.front[i].units);
        EXPECT_EQ(up.front[i].upgrade_cost, plain.front[i].cost);
        EXPECT_EQ(up.front[i].implementation.flexibility,
                  plain.front[i].flexibility);
      }
      EXPECT_EQ(counters_json(up.stats), counters_json(plain.stats));
      EXPECT_EQ(up.stats.stop_reason, plain.stats.stop_reason);
      EXPECT_EQ(up.stats.exact_up_to_cost, plain.stats.exact_up_to_cost);
      EXPECT_EQ(up.baseline_flexibility, 0.0);
    }
  }
}

TEST(Incremental, UpgradesHonourTheThreadCount) {
  const SpecificationGraph& spec = settop();
  const AllocSet base = alloc_of(spec, {"uP2"});
  const UpgradeResult one = explore_upgrades(spec, base);
  std::vector<double> costs;
  for (const Upgrade& u : one.front) costs.push_back(u.upgrade_cost);
  EXPECT_EQ(costs, (std::vector<double>{70, 130, 190, 260, 330}));
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExploreOptions options;
    options.num_threads = threads;
    const UpgradeResult r = explore_upgrades(spec, base, options);
    ASSERT_TRUE(r.status.ok()) << r.status.error().message;
    EXPECT_EQ(r.stats.threads, threads);
    ASSERT_EQ(r.front.size(), one.front.size());
    for (std::size_t i = 0; i < r.front.size(); ++i) {
      EXPECT_TRUE(r.front[i].implementation.units ==
                  one.front[i].implementation.units);
      EXPECT_EQ(r.front[i].upgrade_cost, one.front[i].upgrade_cost);
      EXPECT_EQ(r.front[i].implementation.flexibility,
                one.front[i].implementation.flexibility);
    }
  }
}

TEST(Incremental, EmptyBaselineCollectsTheEquivalentsOfExplore) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.collect_equivalents = true;
  const UpgradeResult up =
      explore_upgrades(spec, spec.make_alloc_set(), options);
  const ExploreResult plain = explore(spec, options);
  ASSERT_EQ(up.front.size(), plain.front.size());
  std::size_t found = 0;
  for (std::size_t i = 0; i < up.front.size(); ++i) {
    const std::vector<Implementation>& got =
        up.front[i].implementation.equivalents;
    const std::vector<Implementation>& want = plain.front[i].equivalents;
    ASSERT_EQ(got.size(), want.size()) << "front row " << i;
    for (std::size_t j = 0; j < got.size(); ++j)
      EXPECT_TRUE(got[j].units == want[j].units);
    found += got.size();
  }
  EXPECT_EQ(found, 2u);
}

TEST(Incremental, ResumeIsRejected) {
  // The checkpoint digests do not cover the deployed allocation, so no
  // checkpoint can be validated against an upgrade run.
  ExploreOptions budgeted;
  budgeted.budget.max_allocations = 20;
  const ExploreResult partial = explore(settop(), budgeted);
  ASSERT_TRUE(partial.checkpoint.has_value());
  ExploreOptions options;
  options.resume = &*partial.checkpoint;
  const UpgradeResult r =
      explore_upgrades(settop(), alloc_of(settop(), {"uP2"}), options);
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.front.empty());
}

TEST(Incremental, SunkResourcesAreNotPenalized) {
  // A deployed platform with a dangling bus (C5 without uP1) must still be
  // upgradable: the dominance filter only judges the added units.
  const SpecificationGraph& spec = settop();
  const UpgradeResult r =
      explore_upgrades(spec, alloc_of(spec, {"uP2", "C5"}));
  EXPECT_EQ(r.baseline_flexibility, 2.0);
  ASSERT_FALSE(r.front.empty());
  EXPECT_EQ(r.front.back().implementation.flexibility, 8.0);
}

TEST(Incremental, WorksOnSyntheticSpecs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    params.applications = 2;
    params.accelerators = 1;
    params.fpga_configs = 1;
    const SpecificationGraph spec = generate_spec(params);

    // Deploy the cheapest Pareto platform, then upgrade.
    const ExploreResult plain = explore(spec);
    ASSERT_FALSE(plain.front.empty()) << "seed " << seed;
    const UpgradeResult up =
        explore_upgrades(spec, plain.front.front().units);
    EXPECT_EQ(up.baseline_flexibility, plain.front.front().flexibility);
    for (const Upgrade& u : up.front) {
      EXPECT_GT(u.implementation.flexibility, up.baseline_flexibility);
      EXPECT_TRUE(
          plain.front.front().units.is_subset_of(u.implementation.units));
    }
  }
}

}  // namespace
}  // namespace sdf
