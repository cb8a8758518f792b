// Exhaustive binding enumeration (testing / certification aid).
//
// Enumerates *every* complete assignment of activated processes to
// allocated mapping targets and classifies each against the same
// feasibility conditions the backtracking solver enforces (communication,
// configuration exclusivity, utilization bound).  Exponential in the
// number of processes — intended for paper-sized activations, where it
// certifies that `solve_binding` is complete (finds a binding iff one
// exists) and counts the feasible bindings.
#pragma once

#include <cstdint>
#include <vector>

#include "bind/solver.hpp"
#include "graph/eca.hpp"

namespace sdf {

struct BindingEnumeration {
  /// All feasible bindings found (up to `max_feasible`).
  std::vector<Binding> feasible;
  /// Complete assignments examined.
  std::uint64_t assignments = 0;
  /// True when enumeration stopped at the `max_feasible` cap.
  bool truncated = false;
};

/// Enumerates bindings of `eca` on `alloc`.  `max_feasible` caps the stored
/// feasible bindings (0 = unlimited).  Domains and the memoized flattening
/// come from the index.
[[nodiscard]] BindingEnumeration enumerate_bindings(
    const CompiledSpec& cs, const AllocSet& alloc, const Eca& eca,
    const SolverOptions& options = {}, std::size_t max_feasible = 0);

}  // namespace sdf
