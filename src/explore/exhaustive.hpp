// Exhaustive baseline: evaluate every allocation, keep the Pareto front.
//
// "An exhaustive search approach (there are 2^|V_S| possible solutions)
// seems not to be a viable solution." (§4)  This module implements exactly
// that non-viable baseline — it tries to construct an implementation for
// *every* subset of the unit universe — so tests can verify EXPLORE finds
// the identical front and benches can quantify the speedup.
#pragma once

#include <cstdint>
#include <vector>

#include "bind/implementation.hpp"
#include "spec/specification.hpp"
#include "util/run_budget.hpp"

namespace sdf {

struct ExhaustiveStats {
  std::uint64_t subsets = 0;
  std::uint64_t implementation_attempts = 0;
  std::uint64_t solver_calls = 0;
  double wall_seconds = 0.0;
  /// Why the sweep ended.  Unlike EXPLORE, the mask order is not
  /// cost-ordered, so an interrupted sweep's front carries no completeness
  /// certificate — it is merely the Pareto filter of what was evaluated.
  StopReason stop_reason = StopReason::kCompleted;
  /// Subsets abandoned mid-evaluation by the budget (not infeasible).
  std::uint64_t budget_abandoned = 0;
};

struct ExhaustiveResult {
  /// Pareto-optimal implementations, ascending cost.
  std::vector<Implementation> front;
  ExhaustiveStats stats;
};

/// Brute force over all 2^n allocations; refuses universes beyond
/// `max_universe` units (runtime doubles per unit).  `budget` interrupts
/// the sweep cooperatively (the default never does).  Throws
/// `std::length_error` at an allocation past `kEcaLimit`.
[[nodiscard]] ExhaustiveResult explore_exhaustive(
    const SpecificationGraph& spec, const ImplementationOptions& options = {},
    std::size_t max_universe = 20, const RunBudget& budget = {});

}  // namespace sdf
