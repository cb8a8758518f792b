// Tests for quasi-static scheduling (ref. [1]) and knee-point selection.
#include <gtest/gtest.h>

#include <algorithm>

#include "bind/implementation.hpp"
#include "explore/explorer.hpp"
#include "moo/knee.hpp"
#include "sched/quasi_static.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

Implementation implementation_on(std::initializer_list<const char*> units) {
  const SpecificationGraph& spec = settop();
  AllocSet a = spec.make_alloc_set();
  for (const char* n : units) a.set(spec.find_unit(n).index());
  auto impl = build_implementation(spec.compiled(), a);
  EXPECT_TRUE(impl.has_value());
  return std::move(*impl);
}

TEST(QuasiStatic, SingleProcessorBehaviors) {
  // The uP2-only implementation runs the browser and the TV decoder; the
  // quasi-static compilation yields one schedule per behavior.
  const SpecificationGraph& spec = settop();
  const Implementation impl = implementation_on({"uP2"});
  const auto qs = quasi_static_schedule(spec, impl);
  ASSERT_TRUE(qs.has_value());
  EXPECT_EQ(qs->behaviors.size(), 2u);  // gI; gD1+gU1
  EXPECT_TRUE(qs->all_fit());
  // TV behavior: Pa(60) + PcD(10) + Pd1(95) + Pu1(45) serially = 210.
  double tv_makespan = 0.0;
  for (const BehaviorSchedule& b : qs->behaviors)
    tv_makespan = std::max(tv_makespan, b.schedule.makespan);
  EXPECT_EQ(tv_makespan, 210.0);
  EXPECT_EQ(qs->worst_makespan, 210.0);
}

TEST(QuasiStatic, RecurringTimeExcludesPrelude) {
  // The TV behavior's recurring part is decryption + uncompression
  // (95 + 45); authentication and controller run once.
  const SpecificationGraph& spec = settop();
  const Implementation impl = implementation_on({"uP2"});
  const auto qs = quasi_static_schedule(spec, impl);
  ASSERT_TRUE(qs.has_value());
  const auto tv = std::find_if(
      qs->behaviors.begin(), qs->behaviors.end(),
      [](const BehaviorSchedule& b) { return b.period == 300.0; });
  ASSERT_NE(tv, qs->behaviors.end());
  EXPECT_EQ(tv->recurring_time, 140.0);
  EXPECT_TRUE(tv->fits_period());
}

TEST(QuasiStatic, CommonPreludeIsEmptyAcrossApplications) {
  // Different applications share no process, so the prelude across the
  // browser and the decoder is empty.
  const SpecificationGraph& spec = settop();
  const Implementation impl = implementation_on({"uP2"});
  const auto qs = quasi_static_schedule(spec, impl);
  ASSERT_TRUE(qs.has_value());
  EXPECT_TRUE(qs->common_prelude.empty());
}

TEST(QuasiStatic, CommonPreludeWithinOneApplication) {
  // Restricting to the decoder's behaviors: Pa and PcD are common to every
  // decryptor/uncompressor combination.
  const SpecificationGraph& spec = settop();
  Implementation impl = implementation_on({"uP2", "A1", "C2"});
  // Drop non-TV behaviors to isolate the decoder's behavior family.
  std::erase_if(impl.ecas, [&](const FeasibleEca& fe) {
    for (ClusterId c : fe.eca.clusters)
      if (spec.problem().cluster(c).name == "gD") return false;
    return true;
  });
  ASSERT_GE(impl.ecas.size(), 2u);
  const auto qs = quasi_static_schedule(spec, impl);
  ASSERT_TRUE(qs.has_value());
  std::vector<std::string> names;
  for (NodeId n : qs->common_prelude)
    names.push_back(spec.problem().node(n).name);
  EXPECT_EQ(names, (std::vector<std::string>{"Pa", "PcD"}));
}

TEST(QuasiStatic, EmptyImplementationRejected) {
  Implementation impl;
  EXPECT_FALSE(quasi_static_schedule(settop(), impl).has_value());
}

TEST(QuasiStatic, ParallelResourcesShortenWorstMakespan) {
  const SpecificationGraph& spec = settop();
  const auto serial = quasi_static_schedule(
      spec, implementation_on({"uP2"}));
  const auto parallel = quasi_static_schedule(
      spec, implementation_on({"uP2", "A1", "C2"}));
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  // More resources can only help the worst behavior.
  EXPECT_LE(parallel->worst_makespan, serial->worst_makespan + 1e-9);
}

// ---- knee ---------------------------------------------------------------------

TEST(Knee, CaseStudyKnee) {
  const ExploreResult result = explore(settop());
  const auto curve = result.tradeoff_curve();
  const auto knee = knee_index(curve);
  ASSERT_TRUE(knee.has_value());
  // Interior point (never an extreme).
  EXPECT_GT(*knee, 0u);
  EXPECT_LT(*knee, curve.size() - 1);
  // The distances peak at the knee.
  const auto dist = chord_distances(curve);
  for (double d : dist) EXPECT_LE(d, dist[*knee]);
}

TEST(Knee, TooFewPoints) {
  EXPECT_FALSE(knee_index({}).has_value());
  EXPECT_FALSE(knee_index({{1, 2, 0}}).has_value());
  EXPECT_FALSE(knee_index({{1, 2, 0}, {2, 1, 1}}).has_value());
}

TEST(Knee, CollinearFrontHasNoKnee) {
  const std::vector<ParetoPoint> line{{0, 2, 0}, {1, 1, 1}, {2, 0, 2}};
  EXPECT_FALSE(knee_index(line).has_value());
}

TEST(Knee, ObviousKneeDetected) {
  // An L-shaped front: the corner is the knee.
  const std::vector<ParetoPoint> front{
      {0, 10, 0}, {1, 1, 1}, {10, 0, 2}};
  const auto knee = knee_index(front);
  ASSERT_TRUE(knee.has_value());
  EXPECT_EQ(*knee, 1u);
}

TEST(Knee, ScaleInvariant) {
  const std::vector<ParetoPoint> front{
      {0, 10, 0}, {2, 4, 1}, {3, 3, 2}, {10, 0, 3}};
  std::vector<ParetoPoint> scaled = front;
  for (ParetoPoint& p : scaled) {
    p.x *= 1000.0;
    p.y *= 0.001;
  }
  EXPECT_EQ(knee_index(front), knee_index(scaled));
}

}  // namespace
}  // namespace sdf
