// Exploration under uncertain allocation costs (extension, after [12]).
//
// Unit costs become intervals: either annotated per architecture component
// (`cost_lo` / `cost_hi` attributes, defaulting to the crisp `cost`) or
// derived from a uniform relative uncertainty.  The explorer walks
// candidates by ascending best-case (lo) cost and archives every
// implementation that is not *certainly* dominated — the uncertain Pareto
// set of [12].  With zero uncertainty this degenerates to the crisp
// EXPLORE front.
#pragma once

#include "explore/explorer.hpp"
#include "moo/interval.hpp"

namespace sdf::attr {
/// Optional lower/upper cost bounds on architecture vertices or clusters;
/// absent bounds default to the crisp kCost value.
inline constexpr const char* kCostLo = "cost_lo";
inline constexpr const char* kCostHi = "cost_hi";
}  // namespace sdf::attr

namespace sdf {

struct UncertainExploreOptions {
  /// When > 0, overrides per-unit annotations with a uniform relative
  /// uncertainty: cost in [c*(1-u), c*(1+u)].
  double relative_uncertainty = 0.0;
};

struct UncertainPoint {
  Implementation implementation;
  Interval cost;
};

struct UncertainExploreResult {
  /// The uncertain Pareto set, ascending best-case cost.  A superset of
  /// the crisp front: points whose cost intervals overlap are mutually
  /// incomparable and all retained.
  std::vector<UncertainPoint> front;
  double max_flexibility = 0.0;
  ExploreStats stats;
};

/// Cost interval of one allocation under the option's uncertainty model.
[[nodiscard]] Interval allocation_cost_interval(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const UncertainExploreOptions& options = {});

/// Runs the uncertain-cost exploration.  It always applies the §5
/// dominance filter and the flexibility bound, and solves with the default
/// `ImplementationOptions`: no binding cache, analyzer or budget.
[[nodiscard]] UncertainExploreResult explore_uncertain(
    const SpecificationGraph& spec, const UncertainExploreOptions& options = {});

}  // namespace sdf
