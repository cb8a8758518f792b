// Tests for interval dominance and uncertain-cost exploration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "explore/allocation_enum.hpp"
#include "explore/explorer.hpp"
#include "explore/uncertain.hpp"
#include "flex/activatability.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

/// Settop with the custom ASIC A1 quoted anywhere in [200, 400].
SpecificationGraph settop_with_risky_asic() {
  SpecificationGraph spec = models::make_settop_spec();
  HierarchicalGraph& arch = spec.architecture();
  arch.set_attr(arch.find_node("A1"), attr::kCostLo, 200.0);
  arch.set_attr(arch.find_node("A1"), attr::kCostHi, 400.0);
  return spec;
}

/// `spec` with its FPGA device priced 100 in [0, 100]: each configuration's
/// best case lies 100 below its crisp cost, though every unit is crisp.
SpecificationGraph with_uncertain_fpga(SpecificationGraph spec) {
  HierarchicalGraph& arch = spec.architecture();
  const NodeId fpga = arch.find_node("FPGA");
  arch.set_attr(fpga, attr::kCost, 100.0);
  arch.set_attr(fpga, attr::kCostLo, 0.0);
  arch.set_attr(fpga, attr::kCostHi, 100.0);
  return spec;
}

UncertainExploreOptions uniform(double u) {
  UncertainExploreOptions options;
  options.relative_uncertainty = u;
  return options;
}

/// A front point as (allocation names, cost interval, flexibility).
using Row = std::tuple<std::string, double, double, double>;

std::vector<Row> rows(const SpecificationGraph& spec,
                      const std::vector<UncertainPoint>& front) {
  std::vector<Row> out;
  for (const UncertainPoint& p : front)
    out.emplace_back(spec.allocation_names(p.implementation.units), p.cost.lo,
                     p.cost.hi, p.implementation.flexibility);
  return out;
}

/// The uncertain Pareto set with no stop rule and no bound: every
/// candidate of the stream that passes the §5 filter and is possible gets
/// implemented and offered to the archive.
std::vector<UncertainPoint> unstopped_front(const SpecificationGraph& spec) {
  const CompiledSpec& cs = spec.compiled();
  const DominanceContext dominance(cs);
  CostOrderedAllocations stream(cs);
  IntervalFront archive;
  std::vector<UncertainPoint> points;
  while (std::optional<AllocSet> a = stream.next()) {
    if (a->none() || obviously_dominated(cs, dominance, *a)) continue;
    if (!Activatability(cs, *a).root_activatable()) continue;
    std::optional<Implementation> impl = build_implementation(cs, *a);
    if (!impl.has_value()) continue;
    const Interval cost = allocation_cost_interval(spec, *a);
    if (archive.insert({cost, 1.0 / impl->flexibility, points.size()}))
      points.push_back(UncertainPoint{std::move(*impl), cost});
  }
  std::vector<UncertainPoint> front;
  for (const IntervalPoint& p : archive.points())
    front.push_back(std::move(points[p.tag]));
  return front;
}

// ---- Interval ----------------------------------------------------------------

TEST(Interval, Basics) {
  const Interval i{2.0, 5.0};
  EXPECT_EQ(i.width(), 3.0);
  EXPECT_EQ(i.mid(), 3.5);
  EXPECT_TRUE(i.contains(2.0));
  EXPECT_TRUE(i.contains(5.0));
  EXPECT_FALSE(i.contains(5.1));
  EXPECT_EQ(Interval::exact(4.0), (Interval{4.0, 4.0}));
  EXPECT_EQ((Interval{1, 2} + Interval{3, 4}), (Interval{4.0, 6.0}));
  EXPECT_TRUE((Interval{1, 3}).overlaps(Interval{2, 4}));
  EXPECT_FALSE((Interval{1, 2}).overlaps(Interval{3, 4}));
}

TEST(IntervalDominance, CertainRequiresDisjointBetterCost) {
  const IntervalPoint cheap_good{{1, 2}, 0.2, 0};
  const IntervalPoint dear_bad{{3, 4}, 0.5, 1};
  const IntervalPoint overlap_bad{{1.5, 3.5}, 0.5, 2};
  EXPECT_TRUE(certainly_dominates(cheap_good, dear_bad));
  EXPECT_FALSE(certainly_dominates(dear_bad, cheap_good));
  // Overlapping cost intervals: never certain.
  EXPECT_FALSE(certainly_dominates(cheap_good, overlap_bad));
  EXPECT_TRUE(possibly_dominates(cheap_good, overlap_bad));
}

TEST(IntervalDominance, EqualPointsDominateNeitherWay) {
  const IntervalPoint p{{1, 2}, 0.3, 0};
  EXPECT_FALSE(certainly_dominates(p, p));
}

TEST(IntervalDominance, ExactIntervalsReduceToCrispDominance) {
  const IntervalPoint a{Interval::exact(1), 1.0, 0};
  const IntervalPoint b{Interval::exact(2), 2.0, 1};
  const IntervalPoint c{Interval::exact(1), 2.0, 2};
  EXPECT_TRUE(certainly_dominates(a, b));
  EXPECT_TRUE(certainly_dominates(a, c));
  EXPECT_FALSE(certainly_dominates(c, a));
}

TEST(IntervalFront, KeepsIncomparableOverlaps) {
  IntervalFront front;
  EXPECT_TRUE(front.insert({{1, 3}, 0.5, 0}));
  EXPECT_TRUE(front.insert({{2, 4}, 0.4, 1}));  // overlapping: kept
  EXPECT_EQ(front.size(), 2u);
  // Certainly dominated by the first: rejected.
  EXPECT_FALSE(front.insert({{5, 6}, 0.6, 2}));
  // Certainly dominates both: replaces them.
  EXPECT_TRUE(front.insert({{0.1, 0.5}, 0.1, 3}));
  EXPECT_EQ(front.size(), 1u);
}

// ---- uncertain exploration -------------------------------------------------------

TEST(UncertainExplore, ZeroUncertaintyMatchesCrispFront) {
  const SpecificationGraph& spec = settop();
  const UncertainExploreResult uncertain = explore_uncertain(spec);
  const ExploreResult crisp = explore(spec);
  ASSERT_EQ(uncertain.front.size(), crisp.front.size());
  for (std::size_t i = 0; i < crisp.front.size(); ++i) {
    EXPECT_EQ(uncertain.front[i].cost, Interval::exact(crisp.front[i].cost));
    EXPECT_EQ(uncertain.front[i].implementation.flexibility,
              crisp.front[i].flexibility);
  }
}

TEST(UncertainExplore, UncertaintyGrowsTheFront) {
  // With +-15% cost uncertainty, neighboring crisp points' intervals
  // overlap and previously-dominated designs become incomparable: the
  // uncertain Pareto set is at least as large as the crisp front.
  const SpecificationGraph& spec = settop();
  UncertainExploreOptions options;
  options.relative_uncertainty = 0.15;
  const UncertainExploreResult uncertain = explore_uncertain(spec, options);
  const ExploreResult crisp = explore(spec);
  EXPECT_GE(uncertain.front.size(), crisp.front.size());

  // Every crisp front point survives (it cannot be certainly dominated).
  for (const Implementation& c : crisp.front) {
    bool present = false;
    for (const UncertainPoint& u : uncertain.front)
      if (u.implementation.flexibility == c.flexibility &&
          u.cost.contains(c.cost))
        present = true;
    EXPECT_TRUE(present) << c.cost << " f=" << c.flexibility;
  }
}

TEST(UncertainExplore, IntervalsScaleWithUncertainty) {
  const SpecificationGraph& spec = settop();
  UncertainExploreOptions options;
  options.relative_uncertainty = 0.10;
  const UncertainExploreResult r = explore_uncertain(spec, options);
  ASSERT_FALSE(r.front.empty());
  for (const UncertainPoint& p : r.front) {
    const double crisp =
        spec.compiled().allocation_cost(p.implementation.units);
    EXPECT_NEAR(p.cost.lo, crisp * 0.9, 1e-9);
    EXPECT_NEAR(p.cost.hi, crisp * 1.1, 1e-9);
  }
}

TEST(UncertainExplore, DeviceIntervalsAreCharged) {
  const SpecificationGraph spec =
      with_uncertain_fpga(models::make_settop_spec());
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("uP2").index());
  a.set(spec.find_unit("C1").index());
  a.set(spec.find_unit("U2").index());
  a.set(spec.find_unit("D3").index());
  const double crisp = spec.compiled().allocation_cost(a);
  // Two configurations of one device: the device is charged once.
  EXPECT_EQ(allocation_cost_interval(spec, a),
            (Interval{crisp - 100.0, crisp}));
  EXPECT_EQ(IntervalCostModel(spec, {}).stop_ratio(), 0.0);
  EXPECT_EQ(IntervalCostModel(settop(), {}).stop_ratio(), 1.0);
}

/// `explore_uncertain` returns the unstopped front, in any order, and that
/// front has `size` points.
void expect_unstopped_front(const SpecificationGraph& spec, std::size_t size) {
  const UncertainExploreResult r = explore_uncertain(spec);
  // A device whose best case is free makes the stop ratio 0, so the walk
  // drains the stream.
  EXPECT_TRUE(r.stats.exhausted);
  std::vector<Row> got = rows(spec, r.front);
  std::vector<Row> want = rows(spec, unstopped_front(spec));
  EXPECT_EQ(want.size(), size);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(UncertainExplore, StopRuleCountsDeviceIntervals) {
  // The stop rule must bound a candidate's best case through its device
  // too: here the FPGA's configurations cost up to 100 less than their
  // crisp price.  A ratio over the units alone is 1 and stops the walk
  // before designs on the FPGA that no archived point certainly
  // dominates.
  expect_unstopped_front(with_uncertain_fpga(models::make_settop_spec()), 17);
  expect_unstopped_front(with_uncertain_fpga(models::make_tv_decoder_spec()),
                         15);
}

TEST(UncertainExplore, PerUnitAnnotationsRespected) {
  const SpecificationGraph spec = settop_with_risky_asic();
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("uP2").index());
  a.set(spec.find_unit("A1").index());
  a.set(spec.find_unit("C2").index());
  const Interval cost = allocation_cost_interval(spec, a);
  EXPECT_EQ(cost, (Interval{100.0 + 200.0 + 10.0, 100.0 + 400.0 + 10.0}));
}

TEST(UncertainExplore, MutuallyNonCertainlyDominated) {
  const SpecificationGraph& spec = settop();
  UncertainExploreOptions options;
  options.relative_uncertainty = 0.2;
  const UncertainExploreResult r = explore_uncertain(spec, options);
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    for (std::size_t j = 0; j < r.front.size(); ++j) {
      if (i == j) continue;
      const IntervalPoint a{r.front[i].cost,
                            1.0 / r.front[i].implementation.flexibility, i};
      const IntervalPoint b{r.front[j].cost,
                            1.0 / r.front[j].implementation.flexibility, j};
      EXPECT_FALSE(certainly_dominates(a, b));
    }
  }
}

TEST(UncertainExplore, RepricingAfterAUniverseReadReachesTheModel) {
  // uP1 repriced from 120 to 5 after the unit universe was read: the
  // interval model must price it as a cold copy of the same spec does.
  SpecificationGraph spec = models::make_settop_spec();
  const AllocUnitId up1 = spec.find_unit("uP1");
  ASSERT_EQ(spec.alloc_units()[up1.index()].cost, 120.0);
  HierarchicalGraph& arch = spec.architecture();
  arch.set_attr(arch.find_node("uP1"), attr::kCost, 5.0);
  EXPECT_EQ(spec.alloc_units()[up1.index()].cost, 5.0);
  const SpecificationGraph cold = spec;  // a copy starts with no index
  const UncertainExploreResult warm = explore_uncertain(spec, uniform(0.2));
  const UncertainExploreResult fresh = explore_uncertain(cold, uniform(0.2));
  EXPECT_EQ(fresh.front.size(), 77u);
  EXPECT_EQ(rows(spec, warm.front), rows(cold, fresh.front));
}

TEST(UncertainExplore, ShrinkingUncertaintyConvergesToCrisp) {
  const SpecificationGraph& spec = settop();
  std::size_t previous = std::numeric_limits<std::size_t>::max();
  for (double u : {0.2, 0.05, 0.0}) {
    UncertainExploreOptions options;
    options.relative_uncertainty = u;
    const UncertainExploreResult r = explore_uncertain(spec, options);
    EXPECT_LE(r.front.size(), previous);
    previous = r.front.size();
  }
  EXPECT_EQ(previous, explore(spec).front.size());
}

// ---- pinned runs ------------------------------------------------------------
//
// Fronts and work counters of uncertain runs, pinned bit for bit.
// `solver_nodes` and the cache counters depend on the engine's binding
// caches, so they are not pinned.

/// Deterministic work counters of one run, in `ExploreStats` order, and
/// how it ended.
struct Counters {
  std::uint64_t candidates_generated;
  std::uint64_t dominated_skipped;
  std::uint64_t possible_allocations;
  std::uint64_t flexibility_estimations;
  std::uint64_t bound_skipped;
  std::uint64_t implementation_attempts;
  std::uint64_t solver_calls;
  bool exhausted;  ///< the stream ran dry before the stop rule fired
};

void expect_pinned(const SpecificationGraph& spec,
                   const UncertainExploreOptions& options,
                   const std::vector<Row>& front, const Counters& want) {
  const UncertainExploreResult r = explore_uncertain(spec, options);
  EXPECT_EQ(rows(spec, r.front), front);
  const ExploreStats& s = r.stats;
  EXPECT_EQ(s.candidates_generated, want.candidates_generated);
  EXPECT_EQ(s.dominated_skipped, want.dominated_skipped);
  EXPECT_EQ(s.possible_allocations, want.possible_allocations);
  EXPECT_EQ(s.flexibility_estimations, want.flexibility_estimations);
  EXPECT_EQ(s.bound_skipped, want.bound_skipped);
  EXPECT_EQ(s.implementation_attempts, want.implementation_attempts);
  EXPECT_EQ(s.solver_calls, want.solver_calls);
  EXPECT_EQ(s.exhausted, want.exhausted);
}

TEST(UncertainPins, SettopCrisp) {
  expect_pinned(settop(), {},
                {{"uP2", 100, 100, 2},
                 {"uP1", 120, 120, 3},
                 {"uP2, C1, G1, U2", 230, 230, 4},
                 {"uP2, C1, G1, U2, D3", 290, 290, 5},
                 {"uP2, A1, C2", 360, 360, 7},
                 {"uP2, A1, C1, C2, D3", 430, 430, 8}},
                {1665, 1545, 90, 90, 62, 28, 180, false});
}

TEST(UncertainPins, SettopFifteenPercent) {
  expect_pinned(settop(), uniform(0.15),
                {{"uP2", 85, 114.99999999999999, 2},
                 {"uP1", 102, 138, 3},
                 {"uP2, C1, G1, U2", 195.5, 264.5, 4},
                 {"uP1, C5, U2", 199.75, 270.25, 4},
                 {"uP2, C1, G1, U2, D3", 246.5, 333.5, 5},
                 {"uP1, uP2, C1, U2", 246.5, 333.5, 4},
                 {"uP1, C5, U2, D3", 250.75, 339.25, 5},
                 {"uP1, C5, G1, U2", 250.75, 339.25, 4},
                 {"uP1, uP2, C1, U2, D3", 297.5, 402.5, 5},
                 {"uP1, C5, G1, U2, D3", 301.75, 408.25, 5},
                 {"uP2, A1, C2", 306, 414, 7},
                 {"uP1, A1", 314.5, 425.5, 5},
                 {"uP2, A2, C3", 318.75, 431.25, 7},
                 {"uP1, A2", 323, 437, 5},
                 {"uP2, A3, C4", 327.25, 442.75, 7},
                 {"uP1, A3", 331.5, 448.5, 5},
                 {"uP2, A1, C2, G1", 357, 483, 7},
                 {"uP2, A1, C1, C2, D3", 365.5, 494.5, 8},
                 {"uP2, A1, C1, C2, G1", 365.5, 494.5, 7},
                 {"uP2, A2, C3, G1", 369.75, 500.25, 7},
                 {"uP2, A2, C1, C3, D3", 378.25, 511.75, 8},
                 {"uP2, A2, C1, C3, G1", 378.25, 511.75, 7},
                 {"uP2, A3, C1, C4, D3", 386.75, 523.25, 8},
                 {"uP2, A3, C1, C4, G1", 386.75, 523.25, 7},
                 {"uP1, uP2, A1, C2", 408, 552, 7},
                 {"uP2, A1, C1, G1, D3", 408, 552, 6},
                 {"uP1, A1, C5, D3", 412.25, 557.75, 6},
                 {"uP2, A1, C1, C2, G1, D3", 416.5, 563.5, 8},
                 {"uP2, A2, C1, C3, G1, D3", 429.25, 580.75, 8},
                 {"uP2, A3, C1, C4, G1, D3", 437.75, 592.25, 8},
                 {"uP1, uP2, A1, C1, C2, D3", 467.5, 632.5, 8},
                 {"uP1, uP2, A2, C1, C3, D3", 480.25, 649.75, 8},
                 {"uP1, uP2, A3, C1, C4, D3", 488.75, 661.25, 8}},
                {3410, 3136, 233, 233, 71, 162, 1343, false});
}

TEST(UncertainPins, SettopRiskyAsic) {
  expect_pinned(settop_with_risky_asic(), {},
                {{"uP2", 100, 100, 2},
                 {"uP1", 120, 120, 3},
                 {"uP2, C1, G1, U2", 230, 230, 4},
                 {"uP2, C1, G1, U2, D3", 290, 290, 5},
                 {"uP2, A1, C2", 310, 510, 7},
                 {"uP2, A1, C2, G1", 370, 570, 7},
                 {"uP2, A2, C3", 375, 375, 7},
                 {"uP2, A1, C1, C2, D3", 380, 580, 8},
                 {"uP2, A1, C1, C2, G1, D3", 440, 640, 8},
                 {"uP2, A2, C1, C3, D3", 445, 445, 8}},
                {3088, 2841, 212, 212, 159, 53, 412, false});
}

TEST(UncertainPins, DecoderFifteenPercent) {
  expect_pinned(models::make_tv_decoder_spec(), uniform(0.15),
                {{"uP", 42.5, 57.499999999999993, 1},
                 {"uP, C1, U2", 68, 91.999999999999986, 2},
                 {"uP, C1, D3", 72.25, 97.75, 2},
                 {"uP, C1, U1, U2", 85, 115, 2},
                 {"uP, C1, D3, U1", 89.25, 120.75, 2},
                 {"uP, C1, D3, U2", 93.5, 126.5, 3},
                 {"uP, A", 110.5, 149.5, 3},
                 {"uP, A, C2", 114.75, 155.25, 3},
                 {"uP, A, C1, D3", 140.25, 189.75, 4},
                 {"uP, A, C1, C2, D3", 144.5, 195.5, 4},
                 {"uP, A, C1, D3, U1", 157.25, 212.75, 4},
                 {"uP, A, C1, C2, D3, U1", 161.5, 218.5, 4},
                 {"uP, A, C1, C2, D3, U2", 165.75, 224.25, 4},
                 {"uP, A, C1, D3, U1, U2", 178.5, 241.5, 4},
                 {"uP, A, C1, C2, D3, U1, U2", 182.75, 247.25, 4}},
                {127, 67, 45, 45, 14, 31, 137, true});
}

TEST(UncertainPins, NestedCrisp) {
  Result<SpecificationGraph> spec =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  expect_pinned(
      spec.value(), {},
      {{"t0d0cpu1, t0d1cpu0, t0d2cpu0, t1d0cpu0, t1d1cpu1, t1d2cpu1", 950,
        950, 11},
       {"t0d0cpu1, t0d1cpu1, t0d2cpu0, t1d0cpu0, t1d1cpu1, t1d2cpu1", 952,
        952, 13},
       {"t0d0cpu1, t0d1cpu0, t0d1cpu1, t0d2cpu0, t1d0cpu0, t1d1cpu1, "
        "t1d2cpu1, gbus",
        1255, 1255, 15}},
      {311952, 299663, 440, 440, 0, 440, 28160, false});
}

}  // namespace
}  // namespace sdf
