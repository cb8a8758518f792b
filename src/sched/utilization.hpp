// Utilization-based performance estimation (§2, §5).
//
// "We quickly estimate the processor utilization and use the 69% limit as
// defined in [Liu & Layland 1973] to accept or reject implementations due
// to performance reasons."
//
// The estimate charges every timing-relevant bound process with
// weight * latency / period on its resource; an implementation is accepted
// when no resource exceeds the bound.  `liu_layland_bound(n)` provides the
// exact n-task RM bound n(2^(1/n)-1) for callers that prefer it over the
// asymptotic 69% (= ln 2) limit.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bind/binding.hpp"
#include "spec/specification.hpp"

namespace sdf {

/// The asymptotic rate-monotonic utilization bound ln 2 ~ 0.6931,
/// i.e. the paper's "69% limit".
inline constexpr double kUtilizationBound69 = 0.69;

/// Exact Liu/Layland bound for n tasks: n(2^(1/n) - 1); 1.0 for n == 0.
[[nodiscard]] double liu_layland_bound(std::size_t n);

/// Utilization of every allocatable unit under one binding.
struct UtilizationReport {
  /// Utilization per unit (indexed like `CompiledSpec::units()`).
  std::vector<double> per_unit;
  /// Number of timing-relevant tasks per unit.
  std::vector<std::size_t> tasks_per_unit;
  /// Highest utilization across units.
  double max_utilization = 0.0;
  /// Unit holding the maximum (invalid when no timing-relevant task).
  AllocUnitId bottleneck;

  /// True iff every unit's utilization is within `bound`.
  [[nodiscard]] bool feasible(double bound = kUtilizationBound69) const;
};

/// Computes the utilization report of `binding`: `per_unit` is
/// `unit_utilizations` (bind/solver.hpp), with the task counts and the
/// bottleneck added.
[[nodiscard]] UtilizationReport analyze_utilization(
    const CompiledSpec& cs, const Binding& binding);

/// Accept/reject decision as the paper's §5 applies it: true iff no unit
/// exceeds `bound`.
[[nodiscard]] bool utilization_feasible(const CompiledSpec& cs,
                                        const Binding& binding,
                                        double bound = kUtilizationBound69);

/// Human-readable one-line summary ("uP2: 0.47, D3: 0.21").
[[nodiscard]] std::string utilization_summary(const SpecificationGraph& spec,
                                              const UtilizationReport& report);

}  // namespace sdf
