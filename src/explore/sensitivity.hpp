// Flexibility sensitivity of an allocation (extension).
//
// Answers the platform architect's follow-up question: *which* resources
// of a dimensioned platform actually carry its flexibility?  For every
// allocated unit the analysis removes it, rebuilds the implementation and
// reports the flexibility lost — yielding a flexibility-per-cost ranking
// and identifying critical units (whose removal leaves no feasible
// implementation at all).  This is the single-unit ablation of Def. 4 over
// an implementation, the natural next step after the EXPLORE front.
#pragma once

#include <vector>

#include "bind/implementation.hpp"
#include "spec/specification.hpp"

namespace sdf {

struct UnitSensitivity {
  AllocUnitId unit;
  /// Implemented flexibility lost when the unit is removed (equals the
  /// full implemented flexibility when removal makes the platform
  /// infeasible).
  double flexibility_loss = 0.0;
  /// Allocation cost of the unit (interface surcharge excluded).
  double cost = 0.0;
  /// flexibility_loss / cost; 0 when the unit is free.
  double loss_per_cost = 0.0;
  /// True when no feasible implementation exists without the unit.
  bool critical = false;
};

struct SensitivityReport {
  /// Implemented flexibility of the full allocation.
  double flexibility = 0.0;
  /// One entry per allocated unit, sorted by descending flexibility_loss
  /// (ties by descending loss_per_cost, then ascending unit id).
  std::vector<UnitSensitivity> units;

  /// Entries with zero loss: resources the flexibility does not need.
  [[nodiscard]] std::vector<AllocUnitId> redundant_units() const;
};

/// Single-unit ablation of `alloc`.  Allocations that implement nothing
/// yield a report with flexibility 0 and all-critical units.  Throws
/// `std::length_error` when `alloc` is past `kEcaLimit`.
[[nodiscard]] SensitivityReport flexibility_sensitivity(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const ImplementationOptions& options = {});

}  // namespace sdf
