// Exploration under uncertain allocation costs (extension, after [12]).
//
// Unit and device costs become intervals: either annotated per
// architecture component (`cost_lo` / `cost_hi` attributes, defaulting to
// the crisp `cost`) or derived from a uniform relative uncertainty.
// `explore_uncertain` runs the `explore()` engine over the same stream,
// ordered by crisp cost, and archives every implementation that is not
// *certainly* dominated — the uncertain Pareto set of [12].  The smallest
// lo/crisp ratio over all units and devices turns that crisp order into
// the stop rule: once the crisp cost times the ratio exceeds the upper
// cost of the cheapest archived point of maximal flexibility, every later
// candidate is certainly dominated by it.  With zero uncertainty this
// degenerates to the crisp EXPLORE front.
#pragma once

#include <cstddef>
#include <vector>

#include "explore/explorer.hpp"
#include "moo/interval.hpp"

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

/// The cost intervals of one spec's units and devices under the options'
/// uncertainty model, read from the spec once.
class IntervalCostModel {
 public:
  IntervalCostModel(const SpecificationGraph& spec,
                    const UncertainExploreOptions& options);

  /// Summed in the order of `allocation_cost`: ascending units, each
  /// device after the first of its configurations in `alloc`.
  [[nodiscard]] Interval cost(const AllocSet& alloc) const;

  /// Smallest lo/crisp ratio over the units and devices with a positive
  /// crisp cost, at most 1: crisp cost times it bounds best-case cost.
  [[nodiscard]] double stop_ratio() const { return stop_ratio_; }

 private:
  static constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);
  std::vector<Interval> unit_;          // by unit
  std::vector<std::size_t> device_of_;  // by unit: index into device_
  std::vector<Interval> device_;
  double stop_ratio_ = 1.0;
};

/// Cost interval of one allocation under the option's uncertainty model.
[[nodiscard]] Interval allocation_cost_interval(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const UncertainExploreOptions& options = {});

/// Runs the uncertain-cost exploration on the `explore()` engine with
/// default `ExploreOptions`: the §5 dominance filter, a flexibility bound
/// against the interval archive, and the run-local binding/hierarchy
/// caches and analyzer prefilter.
[[nodiscard]] UncertainExploreResult explore_uncertain(
    const SpecificationGraph& spec, const UncertainExploreOptions& options = {});

}  // namespace sdf
