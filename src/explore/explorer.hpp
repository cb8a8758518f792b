// The EXPLORE algorithm (§4): flexibility/cost design-space exploration.
//
// Candidates (resource allocations) are inspected in increasing cost order.
// Two reductions make this tractable:
//  1. *Possible resource allocations* — candidates that cannot cover any
//     complete problem activation (by mapping-edge reachability alone) are
//     discarded without touching the binding solver.
//  2. *Flexibility estimation* — a candidate whose estimated (upper-bound)
//     flexibility does not exceed the best implemented flexibility so far
//     cannot contribute a new Pareto point and is skipped.
// Only the survivors reach the NP-complete binding construction; because
// cost increases monotonically, every accepted implementation with strictly
// greater flexibility is Pareto-optimal, and the loop terminates early once
// the specification's maximal flexibility has been implemented.
//
// On top of the paper's two reductions, `use_branch_bound` prunes whole
// subtrees of the subset stream whose *optimistic completion* (candidate
// plus all still-addable units) cannot beat the incumbent — a strict
// branch-and-bound strengthening that never changes the result.
//
// Cost bands.  All per-candidate work — the §5 dominance filter,
// activatability, flexibility estimation and the binding construction — is
// independent between candidates, so the engine drains the stream in
// *bands* (runs of consecutive candidates, grouped into levels of equal
// allocation cost), evaluates a band, and then merges it on one thread in
// stream order with the acceptance rules above.  With `num_threads == 1` a
// band holds one candidate and no pool exists: that is the sequential loop
// of §4.  With more threads a band is evaluated on a work-stealing pool and
// an adaptive controller sizes the next band by how many candidates of the
// last one reached the binding construction.
//
// Determinism.  The merge is the only place the Pareto front, the
// equivalents lists and the incumbent f_cur are updated, and it always
// runs in stream order — so the front is bit-identical for any thread
// count.  Concurrency only decides *which* candidates get fully evaluated
// versus pruned early, and the pruning rules are chosen so that a
// candidate skipped in a band could never have contributed to the
// one-thread front:
//   - the committed incumbent (merged bands and earlier levels of the
//     current band) precedes every candidate of the current level in
//     stream order, so the one-thread incumbent at that candidate is at
//     least as large — the usual bound comparison applies;
//   - within one level (equal cost) the bound is applied *strictly*: a
//     concurrently found implementation with strictly higher flexibility
//     at the same cost always pops this candidate's point during the
//     merge, whatever the order, so skipping it is safe even in
//     `collect_equivalents` mode (ties are never skipped).
// The shared incumbents are plain atomic maxima; stale reads only cause
// extra implementation attempts, never a different front.  Work counters
// (attempts, bound skips) therefore depend on the thread count; at one
// thread they are those of the sequential algorithm.
//
// EXPLORE is an *anytime* algorithm: a `RunBudget` (deadline, solver-node
// cap, allocation cap, cancel token) interrupts the run cooperatively, and
// an interrupted run returns the partial front together with a
// *completeness certificate*: because candidates are inspected in
// increasing cost order, the partial front is provably exact for every
// cost strictly below `ExploreStats::exact_up_to_cost` — no allocation
// cheaper than that bound is unexamined.  Interrupted runs also carry an
// `ExploreCheckpoint` from which a later run, at any thread count, resumes
// bit-identically (see explore/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bind/implementation.hpp"
#include "explore/checkpoint.hpp"
#include "moo/pareto.hpp"
#include "spec/specification.hpp"
#include "util/run_budget.hpp"

namespace sdf {

struct ExploreOptions {
  ImplementationOptions implementation;
  /// Apply the §5 "obviously not Pareto-optimal" allocation filter.
  bool prune_dominated_allocations = true;
  /// Skip candidates whose flexibility estimate cannot beat the incumbent
  /// (the paper's second reduction).  Disable only for ablation.
  bool use_flexibility_bound = true;
  /// Prune stream subtrees via the optimistic-completion bound.
  bool use_branch_bound = true;
  /// Also use the static analyzer's allocation-infeasibility relaxation as
  /// a candidate filter and stream branch bound (`--analysis-bound`).  The
  /// bound is sound, so the front is unchanged, but the *checkpointed* work
  /// counters (candidates generated, implementation attempts) differ from a
  /// default run — hence opt-in and part of the options digest, unlike the
  /// always-on ECA prefilter which never changes any checkpointed counter.
  bool use_analysis_bound = false;
  /// Stop as soon as the maximal flexibility has been implemented.
  bool stop_at_max_flexibility = true;
  /// Also collect *equivalent* Pareto points: alternative allocations with
  /// the same (cost, flexibility) as a front point, stored in that point's
  /// `equivalents`.  Costs extra implementation attempts (candidates whose
  /// estimate merely ties the incumbent must be tried too).
  bool collect_equivalents = false;
  /// Safety cap on generated candidates (0 = unlimited).  Only non-empty
  /// candidates count: the stream's empty base allocation is free.
  std::uint64_t max_candidates = 0;
  /// Evaluation threads (0 = one per hardware thread).  1 runs the
  /// sequential algorithm; any count yields the same front.
  std::size_t num_threads = 1;
  /// Anytime limits; the default budget never interrupts anything.
  RunBudget budget;
  /// Resume from a prior interrupted run's checkpoint.  Not owned; must
  /// outlive the call.  The spec and every front-affecting option must
  /// match the checkpointed run (validated via the stored digests).
  const ExploreCheckpoint* resume = nullptr;
};

struct ExploreStats {
  std::size_t universe = 0;            ///< number of allocatable units
  double raw_design_points = 0.0;      ///< 2^universe
  std::uint64_t candidates_generated = 0;
  std::uint64_t dominated_skipped = 0;
  std::uint64_t possible_allocations = 0;
  std::uint64_t flexibility_estimations = 0;
  std::uint64_t bound_skipped = 0;     ///< estimate <= incumbent
  std::uint64_t implementation_attempts = 0;
  /// ECA feasibility queries (cache hits included) — invariant under
  /// caching and checkpoint/resume.
  std::uint64_t solver_calls = 0;
  /// Decision nodes actually searched: the work the binding cache avoids.
  /// Not resume-invariant with the cache on (a resumed run starts cold).
  std::uint64_t solver_nodes = 0;
  // Binding-cache counters (informational, like wall times: they describe
  // work performed in *this* run and are neither checkpointed nor
  // deterministic across thread schedules).
  std::uint64_t cache_hits_feasible = 0;
  std::uint64_t cache_hits_infeasible = 0;
  std::uint64_t cache_revalidations = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t branches_pruned = 0;
  /// ECA solver queries (and, under `use_analysis_bound`, candidates or
  /// stream subtrees) answered by the static relaxation without searching.
  /// Informational like the cache counters.
  std::uint64_t analysis_pruned = 0;
  // Hierarchical-path counters (informational, like the cache counters):
  // per-cluster-group sub-solves run, group verdicts answered from the
  // HierCache frontier.  Zero when the spec does not decompose or under
  // `--no-hier`.
  std::uint64_t hier_subsolves = 0;
  std::uint64_t hier_hits = 0;
  // Flatten-cache occupancy at the end of the run: live entries and
  // cumulative LRU evictions under the entry/byte budget.
  std::uint64_t flat_cache_entries = 0;
  std::uint64_t flat_cache_evictions = 0;
  bool exhausted = false;              ///< stream ran dry (vs. early stop)
  double wall_seconds = 0.0;

  // ---- anytime extras ------------------------------------------------------
  /// Why the run ended; `kCompleted` covers every non-budget ending (ran
  /// dry, max flexibility reached, `max_candidates` cap).
  StopReason stop_reason = StopReason::kCompleted;
  /// Allocations drained from the stream but abandoned unevaluated when
  /// the budget tripped; their work charges are rolled back so a resumed
  /// chain's counters match an uninterrupted run.
  std::uint64_t budget_abandoned = 0;
  /// Unexpanded stream states left behind at the stop point (every
  /// unexamined subset descends from one of them); 0 after a full run.
  std::uint64_t frontier_remaining = 0;
  /// Completeness certificate (valid iff `stop_reason != kCompleted`):
  /// the returned front is exact for every cost strictly below this — the
  /// stream is cost-ordered, so nothing cheaper was left unexamined.
  double exact_up_to_cost = 0.0;
  bool resumed = false;                ///< run started from a checkpoint
  /// Time spent building (or revalidating) the spec's compiled query index
  /// before the candidate loop; included in `wall_seconds`.
  double index_build_seconds = 0.0;

  // ---- cost bands -----------------------------------------------------------
  std::size_t threads = 0;             ///< evaluation threads actually used
  std::uint64_t bands = 0;             ///< cost bands drained and merged
  std::size_t peak_band_size = 0;      ///< largest band (candidates)
  /// Per-phase wall-time breakdown; measured only when a pool runs (more
  /// than one thread), zero otherwise.
  double enumerate_seconds = 0.0;      ///< stream drain + branch bound
  double evaluate_seconds = 0.0;       ///< concurrent candidate evaluation
  double merge_seconds = 0.0;          ///< deterministic band merge
  /// Summed per-worker time inside evaluation, split into the cheap filter
  /// phases (dominance, activatability, estimate) and the NP-complete
  /// binding construction.  Their sum divided by `evaluate_seconds`
  /// approximates the parallel speedup of the evaluation phase.
  double filter_cpu_seconds = 0.0;
  double implement_cpu_seconds = 0.0;

  /// Adds one binding construction's solver and cache work.
  void add(const ImplementationStats& work);
};

struct ExploreResult {
  /// Pareto-optimal implementations, ascending cost / ascending flexibility.
  /// After an interrupted run this is the *partial* front — exact up to
  /// `stats.exact_up_to_cost`, see the file comment.
  std::vector<Implementation> front;
  /// Maximal flexibility of the specification (Def. 4, all clusters).
  double max_flexibility = 0.0;
  ExploreStats stats;
  /// Non-ok when the run failed: a bad resume checkpoint leaves the result
  /// empty; a failed candidate evaluation stops the run with
  /// `stop_reason == kWorkerError` — the merged partial front and the
  /// checkpoint stay valid, so such a run can still be resumed.
  Status status;
  /// Present iff the run was interrupted by its budget; feed back via
  /// `ExploreOptions::resume` to continue bit-identically.
  std::optional<ExploreCheckpoint> checkpoint;

  /// The front as (cost, 1/flexibility) points — the paper's Fig. 4 axes.
  [[nodiscard]] std::vector<ParetoPoint> tradeoff_curve() const;
};

/// Runs EXPLORE on `spec`.  `explore_upgrades` (explore/incremental.hpp)
/// runs the same engine on the supersets of a deployed platform.
[[nodiscard]] ExploreResult explore(const SpecificationGraph& spec,
                                    const ExploreOptions& options = {});

/// Deterministic work counters, stats form ↔ checkpoint form.
[[nodiscard]] ExploreCheckpoint::Counters checkpoint_counters(
    const ExploreStats& stats);
void apply_checkpoint_counters(const ExploreCheckpoint::Counters& counters,
                               ExploreStats& stats);

}  // namespace sdf
