// Evolutionary baseline explorer.
//
// The paper builds on Blickle/Teich/Thiele's evolutionary system-level
// synthesis [2].  This module provides that style of explorer for the
// flexibility/cost MOP: allocations are bitstring genomes, fitness is the
// (cost, 1/flexibility) vector of the constructed implementation, and an
// elitist archive keeps the non-dominated set.  It is a *heuristic*: unlike
// EXPLORE it cannot certify completeness of the front — which is precisely
// the comparison the scaling bench draws.
#pragma once

#include <cstdint>
#include <vector>

#include "bind/implementation.hpp"
#include "spec/specification.hpp"
#include "util/run_budget.hpp"

namespace sdf {

struct EaOptions {
  std::size_t population = 32;
  std::size_t generations = 40;
  std::uint64_t seed = 1;
  ImplementationOptions implementation;
  /// Anytime limits (`max_allocations` bounds genome evaluations); the
  /// archive accumulated so far is returned on interruption.
  RunBudget budget;
};

struct EaStats {
  std::uint64_t evaluations = 0;       ///< implementation constructions
  std::uint64_t feasible_evaluations = 0;
  double wall_seconds = 0.0;
  /// Why the run ended; the EA is a heuristic, so an interrupted archive
  /// is exactly as (un)certified as a completed one.
  StopReason stop_reason = StopReason::kCompleted;
  /// Genome evaluations abandoned mid-solve by the budget.
  std::uint64_t budget_abandoned = 0;
};

struct EaResult {
  /// Archive of non-dominated feasible implementations, ascending cost.
  std::vector<Implementation> front;
  EaStats stats;
};

/// Runs the evolutionary explorer on `spec`.  Throws `std::length_error`
/// at a genome past `kEcaLimit`.
[[nodiscard]] EaResult explore_evolutionary(const SpecificationGraph& spec,
                                            const EaOptions& options = {});

}  // namespace sdf
