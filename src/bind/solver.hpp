// Backtracking solver for the NP-complete binding problem.
//
// Given an allocation and one elementary cluster activation, the solver
// searches for a feasible binding: one activated mapping edge per activated
// process such that
//   * the target unit is allocated,
//   * every activated dependence edge is communication-feasible (rule 3),
//   * at most one configuration per reconfigurable device is in use — "there
//     is exactly one activated cluster for every activated interface in the
//     architecture graph" (§4, non-ambiguous architecture), and
//   * (optionally) the per-resource utilization stays below the
//     schedulability bound (§2 / §5: the 69% limit of Liu & Layland), and
//   * per-resource capacities are respected: the summed `footprint` of the
//     processes bound to a unit may not exceed the unit's `capacity`
//     annotation (units without one are unlimited).
//
// Search is MRV-ordered backtracking with forward checking: the process with
// the fewest remaining candidates is assigned first, and any assignment that
// empties another process's candidate set is undone immediately.
#pragma once

#include <cstdint>
#include <optional>

#include "bind/binding.hpp"
#include "graph/eca.hpp"
#include "util/run_budget.hpp"

namespace sdf {

struct CompiledFlat;

struct SolverOptions {
  CommModel comm_model = CommModel::kOneHopBus;
  /// Maximum utilization per resource unit (Liu/Layland); <= 0 disables the
  /// timing check inside the solver.
  double utilization_bound = 0.69;
  /// Optional shared run budget: every decision node is charged to it and
  /// the search aborts cooperatively once it is exhausted (outcome
  /// `kBudgetExceeded` / `kCancelled`).  Not owned; may be null.
  BudgetTracker* budget = nullptr;
};

/// Why the solver returned without a binding — a caller must be able to
/// distinguish a *proof* of infeasibility from "gave up": a budget-aborted
/// search says nothing about the instance and must never be reported (or
/// counted) as infeasible.
enum class SolveOutcome : std::uint8_t {
  kFeasible = 0,
  kInfeasible,       ///< search space exhausted: provably no binding
  kBudgetExceeded,   ///< RunBudget deadline/node budget exhausted
  kCancelled,        ///< CancelToken tripped
};

struct SolverStats {
  // Cumulative counters: a stats object reused across calls keeps
  // accumulating (callers that want per-call numbers use a fresh object or
  // diff snapshots).
  std::uint64_t nodes = 0;       ///< decision nodes visited
  std::uint64_t backtracks = 0;  ///< failed branches undone
  std::uint64_t cache_hits_feasible = 0;    ///< BindCache witness hits
  std::uint64_t cache_hits_infeasible = 0;  ///< BindCache proof hits
  std::uint64_t cache_revalidations = 0;    ///< cached-witness rechecks
  std::uint64_t hier_subsolves = 0;  ///< per-cluster group sub-solves run
  std::uint64_t hier_hits = 0;       ///< group verdicts answered by HierCache
  // Per-call fields: reset at the entry of every solve (`solve_binding`,
  // `BindCache::solve` and `HierCache::solve`), so a reused stats object
  // cannot leak a previous call's verdict.
  bool aborted = false;          ///< budget or cancellation hit
  SolveOutcome outcome = SolveOutcome::kInfeasible;
};

/// Searches for a feasible binding of the processes activated by `eca` onto
/// `alloc`.  Returns the first feasible binding found, or nullopt if none
/// exists (or the run budget was hit — see `stats.outcome`).
///
/// Candidate domains, adjacency and per-process attributes come straight
/// from the index, including its memoized flattening of `eca.selection`.
[[nodiscard]] std::optional<Binding> solve_binding(
    const CompiledSpec& cs, const AllocSet& alloc, const Eca& eca,
    const SolverOptions& options = {}, SolverStats* stats = nullptr);

/// Kernel entry on an explicit flat (sub-)problem: identical search to
/// `solve_binding`, but over `flat` instead of the memoized flattening of an
/// ECA's selection.  The hierarchical solve path (bind/bind_cache.hpp,
/// `HierCache`) uses this to solve one decomposition group at a time; the
/// group's slice of a flattening is itself a well-formed `CompiledFlat`.
/// Per-call stats fields are reset exactly like `solve_binding`.
[[nodiscard]] std::optional<Binding> solve_binding_flat(
    const CompiledSpec& cs, const AllocSet& alloc, const CompiledFlat& flat,
    const SolverOptions& options = {}, SolverStats* stats = nullptr);

/// Full feasibility check of `binding` as a witness for (`alloc`, `eca`):
/// rules 1-3 plus exclusive configurations, the utilization bound and
/// capacities — everything the solver enforces, in one pass with no search.
/// Used by the binding cache to revalidate a witness found under a subset
/// allocation before returning it for a superset.  Assumes the assignments
/// use genuine mapping alternatives (solver provenance); it does not
/// re-derive the mapping edges.
[[nodiscard]] bool binding_feasible(const CompiledSpec& cs,
                                    const AllocSet& alloc, const Eca& eca,
                                    const Binding& binding,
                                    const SolverOptions& options = {});

/// `binding_feasible` over an explicit flat (sub-)problem — the revalidation
/// primitive for cached per-group witnesses on the hierarchical path.
[[nodiscard]] bool binding_feasible_flat(const CompiledSpec& cs,
                                         const AllocSet& alloc,
                                         const CompiledFlat& flat,
                                         const Binding& binding,
                                         const SolverOptions& options = {});

/// Utilization of each unit under `binding`: sum over bound processes of
/// timing_weight * latency / period (processes without a period contribute
/// nothing).  Indexed by unit.
[[nodiscard]] std::vector<double> unit_utilizations(
    const CompiledSpec& cs, const Binding& binding);

/// Occupied capacity of each unit under `binding`: summed kFootprint of
/// the processes bound to it.  Indexed by unit.
[[nodiscard]] std::vector<double> unit_footprints(
    const CompiledSpec& cs, const Binding& binding);

}  // namespace sdf
