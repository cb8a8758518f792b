#include "explore/uncertain.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "explore/allocation_enum.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"

namespace sdf {
namespace {

/// Cost interval of one unit (vertex or configuration cluster).
Interval unit_cost_interval(const SpecificationGraph& spec,
                            const AllocUnit& unit,
                            const UncertainExploreOptions& options) {
  if (options.relative_uncertainty > 0.0) {
    const double u = options.relative_uncertainty;
    return Interval{unit.cost * (1.0 - u), unit.cost * (1.0 + u)};
  }
  const HierarchicalGraph& arch = spec.architecture();
  if (unit.is_cluster_unit()) {
    return Interval{arch.attr_or(unit.cluster, attr::kCostLo, unit.cost),
                    arch.attr_or(unit.cluster, attr::kCostHi, unit.cost)};
  }
  return Interval{arch.attr_or(unit.vertex, attr::kCostLo, unit.cost),
                  arch.attr_or(unit.vertex, attr::kCostHi, unit.cost)};
}

Interval interface_cost_interval(const SpecificationGraph& spec, NodeId iface,
                                 const UncertainExploreOptions& options) {
  const HierarchicalGraph& arch = spec.architecture();
  const double crisp = arch.attr_or(iface, attr::kCost, 0.0);
  if (options.relative_uncertainty > 0.0) {
    const double u = options.relative_uncertainty;
    return Interval{crisp * (1.0 - u), crisp * (1.0 + u)};
  }
  return Interval{arch.attr_or(iface, attr::kCostLo, crisp),
                  arch.attr_or(iface, attr::kCostHi, crisp)};
}

}  // namespace

Interval allocation_cost_interval(const SpecificationGraph& spec,
                                  const AllocSet& alloc,
                                  const UncertainExploreOptions& options) {
  Interval total{0.0, 0.0};
  DynBitset charged_ifaces(spec.architecture().node_count());
  alloc.for_each([&](std::size_t i) {
    const AllocUnit& u = spec.alloc_units()[i];
    total += unit_cost_interval(spec, u, options);
    if (u.is_cluster_unit() && !charged_ifaces.test(u.top.index())) {
      charged_ifaces.set(u.top.index());
      total += interface_cost_interval(spec, u.top, options);
    }
  });
  return total;
}

UncertainExploreResult explore_uncertain(
    const SpecificationGraph& spec, const UncertainExploreOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  UncertainExploreResult result;
  const CompiledSpec& cs = spec.compiled();
  result.stats.index_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.max_flexibility = max_flexibility(cs.problem());
  result.stats.universe = cs.unit_count();
  result.stats.raw_design_points =
      std::pow(2.0, static_cast<double>(result.stats.universe));

  // Smallest ratio lo/crisp across units: a lower bound that turns the
  // stream's crisp-cost order into a sound lo-cost stopping rule.
  double min_ratio = 1.0;
  for (const AllocUnit& u : cs.units()) {
    if (u.cost <= 0.0) continue;
    const Interval iv = unit_cost_interval(spec, u, options);
    min_ratio = std::min(min_ratio, iv.lo / u.cost);
  }

  IntervalFront archive;
  std::vector<UncertainPoint> points;  // parallel payload, indexed by tag
  // Best-case cost of the cheapest maximal-flexibility point found so far.
  double stop_hi = std::numeric_limits<double>::infinity();

  const DominanceContext dominance(cs);
  CostOrderedAllocations stream(cs);
  while (std::optional<AllocSet> a = stream.next()) {
    if (a->none()) continue;  // the empty base costs no candidate budget
    ++result.stats.candidates_generated;

    const double crisp = cs.allocation_cost(*a);
    if (crisp * min_ratio > stop_hi) break;  // all later points dominated

    if (obviously_dominated(cs, dominance, *a)) {
      ++result.stats.dominated_skipped;
      continue;
    }

    const Activatability act(cs, *a);
    if (!act.root_activatable()) continue;
    ++result.stats.possible_allocations;
    const std::optional<double> est = act.estimated_flexibility();
    ++result.stats.flexibility_estimations;

    const Interval cost = allocation_cost_interval(spec, *a, options);
    // Even the most optimistic point (y = 1/est) certainly dominated?
    if (est.has_value() && *est > 0.0) {
      const IntervalPoint optimistic{cost, 1.0 / *est, 0};
      bool dominated = false;
      for (const IntervalPoint& q : archive.points())
        if (certainly_dominates(q, optimistic)) dominated = true;
      if (dominated) {
        ++result.stats.bound_skipped;
        continue;
      }
    }

    ++result.stats.implementation_attempts;
    ImplementationStats istats;
    std::optional<Implementation> impl =
        build_implementation(cs, *a, {}, &istats);
    result.stats.add(istats);
    if (!impl.has_value()) continue;

    const IntervalPoint point{cost, 1.0 / impl->flexibility, points.size()};
    if (archive.insert(point)) {
      if (impl->flexibility >= result.max_flexibility - 1e-9)
        stop_hi = std::min(stop_hi, cost.hi);
      points.push_back(UncertainPoint{std::move(*impl), cost});
    }
  }
  result.stats.branches_pruned = stream.pruned();

  for (const IntervalPoint& p : archive.points())
    result.front.push_back(points[p.tag]);

  const auto t1 = std::chrono::steady_clock::now();
  result.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace sdf
