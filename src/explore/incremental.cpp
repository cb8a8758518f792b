#include "explore/incremental.hpp"

#include <chrono>
#include <cmath>

#include "bind/bind_cache.hpp"
#include "explore/allocation_enum.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"

namespace sdf {

UpgradeResult explore_upgrades(const SpecificationGraph& spec,
                               const AllocSet& existing,
                               const ExploreOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  UpgradeResult result;
  const CompiledSpec& cs = spec.compiled();
  result.stats.index_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.max_flexibility = max_flexibility(cs.problem());
  result.stats.universe = cs.unit_count() - existing.count();
  result.stats.raw_design_points =
      std::pow(2.0, static_cast<double>(result.stats.universe));

  BudgetTracker tracker(options.budget);
  ImplementationOptions eval_impl = options.implementation;
  eval_impl.solver.budget = &tracker;
  // Run-local binding cache; the baseline evaluation below warms it.
  BindCache bind_cache;
  if (eval_impl.use_bind_cache && eval_impl.bind_cache == nullptr)
    eval_impl.bind_cache = &bind_cache;
  HierCache hier_cache;
  if (eval_impl.use_hier && eval_impl.hier_cache == nullptr)
    eval_impl.hier_cache = &hier_cache;

  ImplementationOptions base_impl = eval_impl;
  base_impl.solver.budget = nullptr;  // the baseline costs no run budget
  if (const auto base = build_implementation(cs, existing, base_impl)) {
    result.baseline_flexibility = base->flexibility;
  }

  double f_cur = result.baseline_flexibility;
  const DominanceContext dominance(cs);
  CostOrderedAllocations stream(cs, existing);
  if (options.use_branch_bound) {
    stream.set_branch_bound([&](const AllocSet& potential) {
      if (f_cur <= 0.0) return true;
      const std::optional<double> est = estimate_flexibility(cs, potential);
      return est.has_value() && *est > f_cur;
    });
  }

  while (std::optional<AllocSet> a = stream.next()) {
    if (*a == existing) continue;  // the baseline itself costs no budget
    if (!tracker.charge_allocation()) {
      // Anytime stop: the front so far is exact for upgrades cheaper than
      // this candidate (the stream is ordered by incremental cost).
      result.stats.stop_reason = tracker.reason();
      result.stats.exact_up_to_cost =
          cs.allocation_cost(*a) - cs.allocation_cost(existing);
      break;
    }
    ++result.stats.candidates_generated;
    if (options.max_candidates != 0 &&
        result.stats.candidates_generated > options.max_candidates)
      break;

    if (options.prune_dominated_allocations) {
      // Only judge the *added* units: the deployed platform is a sunk cost
      // and may legitimately contain resources the upgrade does not use.
      AllocSet added = *a;
      added -= existing;
      if (obviously_dominated(cs, dominance, *a, &added)) {
        ++result.stats.dominated_skipped;
        continue;
      }
    }

    const Activatability act(cs, *a);
    if (!act.root_activatable()) continue;
    ++result.stats.possible_allocations;

    const std::optional<double> est = act.estimated_flexibility();
    ++result.stats.flexibility_estimations;
    if (options.use_flexibility_bound && est.has_value() && *est <= f_cur) {
      ++result.stats.bound_skipped;
      continue;
    }

    ++result.stats.implementation_attempts;
    ImplementationStats istats;
    std::optional<Implementation> impl =
        build_implementation(cs, *a, eval_impl, &istats);
    result.stats.add(istats);
    if (istats.budget_exceeded()) {
      // Abandoned mid-evaluation: this candidate is unknown, not infeasible.
      ++result.stats.budget_abandoned;
      result.stats.stop_reason = tracker.reason();
      result.stats.exact_up_to_cost =
          cs.allocation_cost(*a) - cs.allocation_cost(existing);
      break;
    }
    if (!impl.has_value() || impl->flexibility <= f_cur) continue;

    // Includes any device interface newly brought in by an added
    // configuration (charged once, like allocation_cost itself).
    const double upgrade_cost =
        cs.allocation_cost(*a) - cs.allocation_cost(existing);

    while (!result.front.empty() &&
           result.front.back().upgrade_cost >= upgrade_cost)
      result.front.pop_back();
    f_cur = impl->flexibility;
    result.front.push_back(Upgrade{std::move(*impl), upgrade_cost});

    if (options.stop_at_max_flexibility &&
        f_cur >= result.max_flexibility - 1e-9)
      break;
  }
  result.stats.branches_pruned = stream.pruned();
  result.stats.frontier_remaining = stream.frontier_size();
  if (eval_impl.bind_cache != nullptr)
    result.stats.cache_entries = eval_impl.bind_cache->entries();
  if (eval_impl.hier_cache != nullptr)
    result.stats.cache_entries += eval_impl.hier_cache->entries();
  result.stats.flat_cache_entries = cs.flat_cache_entries();
  result.stats.flat_cache_evictions = cs.flat_cache_evictions();

  const auto t1 = std::chrono::steady_clock::now();
  result.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace sdf
