// Tests for the anytime EXPLORE layer: run budgets, cooperative
// cancellation, completeness certificates, and checkpoint/resume.
//
// The load-bearing contract is *bit-identical resume*: a run interrupted by
// its budget and resumed from its checkpoint — any number of times — must
// end with exactly the front and deterministic work counters of one
// uninterrupted run.  `budget_abandoned` is the sole excluded counter: it
// records the re-evaluation overhead the interrupted chain paid, which an
// uninterrupted run never incurs.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/checkpoint.hpp"
#include "explore/evolutionary.hpp"
#include "explore/exhaustive.hpp"
#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "util/run_budget.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

/// Full-walk options: disabling the max-flexibility early stop gives the
/// budget many more interruption points to land on.
ExploreOptions full_walk() {
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  return options;
}

void expect_same_front(const std::vector<Implementation>& a,
                       const std::vector<Implementation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("front row " + std::to_string(i));
    EXPECT_EQ(a[i].cost, b[i].cost);
    EXPECT_EQ(a[i].flexibility, b[i].flexibility);
    EXPECT_TRUE(a[i].units == b[i].units);
    ASSERT_EQ(a[i].equivalents.size(), b[i].equivalents.size());
    for (std::size_t j = 0; j < a[i].equivalents.size(); ++j)
      EXPECT_TRUE(a[i].equivalents[j].units == b[i].equivalents[j].units);
  }
}

/// Every deterministic counter must survive an interrupt/resume chain;
/// `budget_abandoned` is excluded by design (see the file comment).
/// `solver_nodes` is deliberately absent too: it counts nodes *actually
/// searched*, and the binding cache (on by default, never checkpointed)
/// starts cold on every resume — a chained run re-searches subproblems a
/// warm uninterrupted run served from its cache.  `solver_calls` (queries,
/// cache hits included) stays exactly invariant.  The cache-off chain test
/// below retains the full `solver_nodes` equality.
void expect_same_counters(const ExploreStats& a, const ExploreStats& b) {
  EXPECT_EQ(a.candidates_generated, b.candidates_generated);
  EXPECT_EQ(a.dominated_skipped, b.dominated_skipped);
  EXPECT_EQ(a.possible_allocations, b.possible_allocations);
  EXPECT_EQ(a.flexibility_estimations, b.flexibility_estimations);
  EXPECT_EQ(a.bound_skipped, b.bound_skipped);
  EXPECT_EQ(a.implementation_attempts, b.implementation_attempts);
  EXPECT_EQ(a.solver_calls, b.solver_calls);
  EXPECT_EQ(a.exhausted, b.exhausted);
}

/// Runs an interrupt/resume chain under `budget` until it completes and
/// returns the final run's result.  `runs` reports the chain length.
ExploreResult run_chain(const SpecificationGraph& spec, ExploreOptions options,
                        const RunBudget& budget, int* runs) {
  options.budget = budget;
  std::optional<ExploreCheckpoint> ck;
  *runs = 0;
  while (true) {
    options.resume = ck.has_value() ? &*ck : nullptr;
    ExploreResult result = explore(spec, options);
    ++*runs;
    EXPECT_TRUE(result.status.ok()) << result.status.error().message;
    if (!result.checkpoint.has_value()) return result;
    // Livelock guard: a chain that cannot finish one candidate per run
    // would resume forever.
    EXPECT_LT(*runs, 500) << "resume chain does not make progress";
    if (*runs >= 500) return result;
    ck = std::move(*result.checkpoint);
  }
}

// ---- BudgetTracker ---------------------------------------------------------

TEST(BudgetTracker, UnlimitedBudgetNeverTrips) {
  const RunBudget budget;
  EXPECT_FALSE(budget.limited());
  BudgetTracker tracker(budget);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(tracker.charge_solver_node());
    EXPECT_TRUE(tracker.charge_allocation());
  }
  EXPECT_TRUE(tracker.check());
  EXPECT_FALSE(tracker.exhausted());
  EXPECT_EQ(tracker.reason(), StopReason::kCompleted);
}

TEST(BudgetTracker, AllocationCapTripsStickily) {
  RunBudget budget;
  budget.max_allocations = 3;
  EXPECT_TRUE(budget.limited());
  BudgetTracker tracker(budget);
  EXPECT_TRUE(tracker.charge_allocation());
  EXPECT_TRUE(tracker.charge_allocation());
  EXPECT_TRUE(tracker.charge_allocation());
  EXPECT_FALSE(tracker.charge_allocation());
  EXPECT_EQ(tracker.reason(), StopReason::kAllocations);
  // Sticky at every granularity once tripped.
  EXPECT_FALSE(tracker.charge_solver_node());
  EXPECT_FALSE(tracker.check());
  EXPECT_TRUE(tracker.exhausted());
}

TEST(BudgetTracker, SolverNodeCapTrips) {
  RunBudget budget;
  budget.max_solver_nodes = 5;
  BudgetTracker tracker(budget);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tracker.charge_solver_node());
  EXPECT_FALSE(tracker.charge_solver_node());
  EXPECT_EQ(tracker.reason(), StopReason::kSolverNodes);
  EXPECT_EQ(tracker.solver_nodes_charged(), 6u);  // the tripping charge counts
}

TEST(BudgetTracker, CancelTokenTripsFromOutside) {
  RunBudget budget;
  BudgetTracker tracker(budget);
  EXPECT_TRUE(tracker.check());
  budget.cancel.request_cancel();  // copies share state with the tracker's
  EXPECT_FALSE(tracker.charge_allocation());
  EXPECT_EQ(tracker.reason(), StopReason::kCancelled);
}

TEST(BudgetTracker, ExpiredDeadlineTrips) {
  RunBudget budget;
  budget.deadline_seconds = 1e-9;  // expires before the first sample
  BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.charge_allocation());
  EXPECT_EQ(tracker.reason(), StopReason::kDeadline);
}

TEST(BudgetTracker, FirstTripWinsAndWorkerErrorIsReportable) {
  RunBudget budget;
  budget.max_allocations = 1;
  BudgetTracker tracker(budget);
  EXPECT_TRUE(tracker.charge_allocation());
  EXPECT_FALSE(tracker.charge_allocation());
  tracker.note_worker_error();  // later trip keeps the original reason
  EXPECT_EQ(tracker.reason(), StopReason::kAllocations);

  BudgetTracker fresh{RunBudget{}};
  fresh.note_worker_error();
  EXPECT_EQ(fresh.reason(), StopReason::kWorkerError);
}

TEST(BudgetTracker, StopReasonNamesAreStable) {
  EXPECT_STREQ(stop_reason_name(StopReason::kCompleted), "completed");
  EXPECT_STREQ(stop_reason_name(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(stop_reason_name(StopReason::kSolverNodes), "solver_nodes");
  EXPECT_STREQ(stop_reason_name(StopReason::kAllocations), "allocations");
  EXPECT_STREQ(stop_reason_name(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(stop_reason_name(StopReason::kWorkerError), "worker_error");
}

// ---- interruption + completeness certificate -------------------------------

TEST(AnytimeExplore, AllocationBudgetInterruptsWithCertificate) {
  ExploreOptions options = full_walk();
  options.budget.max_allocations = 5;
  const ExploreResult result = explore(settop(), options);
  ASSERT_TRUE(result.status.ok()) << result.status.error().message;
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocations);
  EXPECT_EQ(result.stats.candidates_generated, 5u);
  EXPECT_FALSE(result.stats.exhausted);
  EXPECT_GT(result.stats.frontier_remaining, 0u);
  EXPECT_GT(result.stats.exact_up_to_cost, 0.0);
  ASSERT_TRUE(result.checkpoint.has_value());
  EXPECT_FALSE(result.checkpoint->pending.empty());
}

TEST(AnytimeExplore, PartialFrontIsPrefixAndExactBelowBound) {
  const ExploreResult full = explore(settop(), full_walk());
  ASSERT_FALSE(full.front.empty());
  for (const std::uint64_t cap : {1u, 3u, 7u, 20u}) {
    SCOPED_TRACE("max_allocations=" + std::to_string(cap));
    ExploreOptions options = full_walk();
    options.budget.max_allocations = cap;
    const ExploreResult partial = explore(settop(), options);
    ASSERT_TRUE(partial.status.ok());
    if (!partial.checkpoint.has_value()) continue;  // budget was enough

    // The interrupted loop is literally a prefix of the uninterrupted one,
    // so below the certificate bound the partial front *is* the full front.
    // (A partial point at exactly the bound may still be displaced later by
    // an equal-cost, higher-flexibility candidate — hence "strictly below".)
    ASSERT_LE(partial.front.size(), full.front.size());
    for (std::size_t i = 0; i < partial.front.size(); ++i) {
      if (partial.front[i].cost >= partial.stats.exact_up_to_cost) break;
      EXPECT_EQ(partial.front[i].cost, full.front[i].cost);
      EXPECT_EQ(partial.front[i].flexibility, full.front[i].flexibility);
      EXPECT_TRUE(partial.front[i].units == full.front[i].units);
    }
    // Certificate: every full-run point strictly cheaper than the bound is
    // already in the partial front.
    for (const Implementation& point : full.front) {
      if (point.cost >= partial.stats.exact_up_to_cost) continue;
      bool found = false;
      for (const Implementation& got : partial.front)
        found = found || (got.cost == point.cost &&
                          got.flexibility == point.flexibility);
      EXPECT_TRUE(found) << "missing certified point at cost " << point.cost;
    }
  }
}

TEST(AnytimeExplore, SolverNodeBudgetAbandonsMidEvaluationAndRollsBack) {
  const ExploreResult full = explore(settop(), full_walk());
  ASSERT_GT(full.stats.solver_nodes, 4u);
  ExploreOptions options = full_walk();
  options.budget.max_solver_nodes = full.stats.solver_nodes / 2;
  const ExploreResult result = explore(settop(), options);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.checkpoint.has_value());
  EXPECT_EQ(result.stats.stop_reason, StopReason::kSolverNodes);
  // The abandoned candidate is counted as budget-abandoned — never as an
  // infeasible allocation — and its charges are rolled back, so the stats
  // only account for fully evaluated candidates.
  EXPECT_EQ(result.stats.budget_abandoned, 1u);
  EXPECT_LE(result.stats.solver_nodes, options.budget.max_solver_nodes);
  EXPECT_LT(result.stats.candidates_generated,
            full.stats.candidates_generated);
}

TEST(AnytimeExplore, PreTrippedCancelYieldsEmptyButResumableRun) {
  ExploreOptions options = full_walk();
  options.budget.cancel.request_cancel();
  const ExploreResult stopped = explore(settop(), options);
  ASSERT_TRUE(stopped.status.ok());
  EXPECT_TRUE(stopped.front.empty());
  EXPECT_EQ(stopped.stats.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(stopped.stats.candidates_generated, 0u);
  ASSERT_TRUE(stopped.checkpoint.has_value());

  // Resuming without the cancelled token completes the run bit-identically
  // to one that was never interrupted.
  const ExploreCheckpoint ck = *stopped.checkpoint;
  ExploreOptions resume = full_walk();
  resume.resume = &ck;
  const ExploreResult resumed = explore(settop(), resume);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_FALSE(resumed.checkpoint.has_value());

  const ExploreResult full = explore(settop(), full_walk());
  expect_same_front(resumed.front, full.front);
  expect_same_counters(resumed.stats, full.stats);
  EXPECT_EQ(resumed.stats.branches_pruned, full.stats.branches_pruned);
}

// ---- checkpoint / resume chains --------------------------------------------

TEST(AnytimeExplore, AllocationBudgetChainMatchesUninterruptedRun) {
  const ExploreResult full = explore(settop(), full_walk());
  RunBudget budget;
  budget.max_allocations = 4;
  int runs = 0;
  const ExploreResult chained =
      run_chain(settop(), full_walk(), budget, &runs);
  EXPECT_GT(runs, 2);  // the budget really did interrupt repeatedly
  EXPECT_TRUE(chained.stats.resumed);
  EXPECT_EQ(chained.stats.frontier_remaining, 0u);
  expect_same_front(chained.front, full.front);
  expect_same_counters(chained.stats, full.stats);
  EXPECT_EQ(chained.stats.branches_pruned, full.stats.branches_pruned);
  // Charge-refused candidates are carried, not abandoned mid-evaluation.
  EXPECT_EQ(chained.stats.budget_abandoned, 0u);
}

TEST(AnytimeExplore, SolverNodeBudgetChainMatchesUninterruptedRun) {
  const ExploreResult full = explore(settop(), full_walk());
  ASSERT_GT(full.stats.solver_nodes, 0u);
  RunBudget budget;
  // Small enough to interrupt several times, large enough that every
  // single candidate still fits in one fresh per-run budget (no livelock).
  budget.max_solver_nodes =
      std::max<std::uint64_t>(full.stats.solver_nodes / 6, 64);
  int runs = 0;
  const ExploreResult chained =
      run_chain(settop(), full_walk(), budget, &runs);
  EXPECT_GT(runs, 1);
  expect_same_front(chained.front, full.front);
  expect_same_counters(chained.stats, full.stats);
  EXPECT_EQ(chained.stats.branches_pruned, full.stats.branches_pruned);
}

TEST(AnytimeExplore, CacheOffChainKeepsSolverNodesInvariant) {
  // With the binding cache disabled, every solver counter — including the
  // per-node work — is bit-identical between a chained and an
  // uninterrupted run.
  ExploreOptions options = full_walk();
  options.implementation.use_bind_cache = false;
  const ExploreResult full = explore(settop(), options);
  EXPECT_EQ(full.stats.cache_hits_feasible, 0u);
  EXPECT_EQ(full.stats.cache_hits_infeasible, 0u);
  EXPECT_EQ(full.stats.cache_entries, 0u);
  RunBudget budget;
  budget.max_allocations = 4;
  int runs = 0;
  const ExploreResult chained =
      run_chain(settop(), options, budget, &runs);
  EXPECT_GT(runs, 2);
  expect_same_front(chained.front, full.front);
  expect_same_counters(chained.stats, full.stats);
  EXPECT_EQ(chained.stats.solver_nodes, full.stats.solver_nodes);
  EXPECT_EQ(chained.stats.branches_pruned, full.stats.branches_pruned);
}

TEST(AnytimeExplore, CachedChainKeepsQueryCountsAndSavesNodes) {
  // With the cache on (the default), the chain still reproduces the front
  // and every query-level counter; node counts may only differ because the
  // cache is derived data and resumes cold.
  const ExploreResult full = explore(settop(), full_walk());
  EXPECT_GT(full.stats.cache_hits_feasible + full.stats.cache_hits_infeasible,
            0u);
  ExploreOptions raw = full_walk();
  raw.implementation.use_bind_cache = false;
  const ExploreResult uncached = explore(settop(), raw);
  EXPECT_LT(full.stats.solver_nodes, uncached.stats.solver_nodes);
  expect_same_front(full.front, uncached.front);
  expect_same_counters(full.stats, uncached.stats);

  RunBudget budget;
  budget.max_allocations = 4;
  int runs = 0;
  const ExploreResult chained =
      run_chain(settop(), full_walk(), budget, &runs);
  EXPECT_GT(runs, 2);
  expect_same_front(chained.front, full.front);
  expect_same_counters(chained.stats, full.stats);
}

TEST(AnytimeExplore, EquivalentCollectingChainMatchesUninterruptedRun) {
  // Exercises resuming with a restored max-flexibility cost tie: the
  // incumbent and tie bound must be recovered from the rebuilt front.
  ExploreOptions options;
  options.collect_equivalents = true;
  const ExploreResult full = explore(settop(), options);
  RunBudget budget;
  budget.max_allocations = 3;
  int runs = 0;
  const ExploreResult chained =
      run_chain(settop(), options, budget, &runs);
  EXPECT_GT(runs, 2);
  expect_same_front(chained.front, full.front);
  expect_same_counters(chained.stats, full.stats);
}

TEST(AnytimeExplore, ParallelChainMatchesUninterruptedSequentialRun) {
  const ExploreResult full = explore(settop(), full_walk());
  ExploreOptions options = full_walk();
  options.num_threads = 4;
  RunBudget budget;
  budget.max_allocations = 6;
  int runs = 0;
  const ExploreResult chained =
      run_chain(settop(), options, budget, &runs);
  EXPECT_GT(runs, 1);
  EXPECT_TRUE(chained.stats.resumed);
  // Multi-thread resume guarantees front identity; work counters may
  // differ (bands evaluate against a staler incumbent than one thread).
  expect_same_front(chained.front, full.front);
}

TEST(AnytimeExplore, ParallelInterruptionCarriesCertificate) {
  const ExploreResult full = explore(settop(), full_walk());
  ExploreOptions options = full_walk();
  options.num_threads = 4;
  options.budget.max_allocations = 6;
  const ExploreResult partial = explore(settop(), options);
  ASSERT_TRUE(partial.status.ok());
  ASSERT_TRUE(partial.checkpoint.has_value());
  EXPECT_EQ(partial.stats.stop_reason, StopReason::kAllocations);
  EXPECT_GT(partial.stats.exact_up_to_cost, 0.0);
  for (const Implementation& point : full.front) {
    if (point.cost >= partial.stats.exact_up_to_cost) continue;
    bool found = false;
    for (const Implementation& got : partial.front)
      found = found || (got.cost == point.cost &&
                        got.flexibility == point.flexibility);
    EXPECT_TRUE(found) << "missing certified point at cost " << point.cost;
  }
}

TEST(AnytimeExplore, SequentialCheckpointResumesInParallelEngine) {
  // The thread count is excluded from the options digest on purpose: it
  // changes work accounting, never the front.
  ExploreOptions options = full_walk();
  options.budget.max_allocations = 5;
  const ExploreResult partial = explore(settop(), options);
  ASSERT_TRUE(partial.checkpoint.has_value());
  const ExploreCheckpoint ck = *partial.checkpoint;

  ExploreOptions resume = full_walk();
  resume.num_threads = 4;
  resume.resume = &ck;
  const ExploreResult resumed = explore(settop(), resume);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.error().message;
  const ExploreResult full = explore(settop(), full_walk());
  expect_same_front(resumed.front, full.front);
}

// ---- checkpoint serialization ----------------------------------------------

ExploreCheckpoint interrupted_checkpoint() {
  ExploreOptions options = full_walk();
  options.budget.max_allocations = 5;
  ExploreResult result = explore(settop(), options);
  SDF_CHECK(result.checkpoint.has_value(), "budget did not interrupt");
  return std::move(*result.checkpoint);
}

TEST(ExploreCheckpoint, JsonRoundTripPreservesEveryField) {
  const ExploreCheckpoint ck = interrupted_checkpoint();
  const std::string text = ck.to_string();
  const Result<ExploreCheckpoint> back = ExploreCheckpoint::from_string(text);
  ASSERT_TRUE(back.ok()) << back.error().message;
  const ExploreCheckpoint& rt = back.value();
  EXPECT_EQ(rt.spec_digest, ck.spec_digest);
  EXPECT_EQ(rt.options_digest, ck.options_digest);
  ASSERT_EQ(rt.front.size(), ck.front.size());
  for (std::size_t i = 0; i < ck.front.size(); ++i) {
    EXPECT_EQ(rt.front[i].units, ck.front[i].units);
    EXPECT_EQ(rt.front[i].equivalents, ck.front[i].equivalents);
  }
  EXPECT_EQ(rt.pending, ck.pending);
  EXPECT_EQ(rt.frontier, ck.frontier);
  EXPECT_EQ(rt.emitted, ck.emitted);
  EXPECT_EQ(rt.pruned, ck.pruned);
  EXPECT_EQ(rt.counters.candidates_generated, ck.counters.candidates_generated);
  EXPECT_EQ(rt.counters.solver_nodes, ck.counters.solver_nodes);
  EXPECT_EQ(rt.counters.budget_abandoned, ck.counters.budget_abandoned);

  // Resuming from the round-tripped form is indistinguishable from
  // resuming from the in-memory object.
  ExploreOptions via_object = full_walk();
  via_object.resume = &ck;
  ExploreOptions via_text = full_walk();
  via_text.resume = &rt;
  const ExploreResult a = explore(settop(), via_object);
  const ExploreResult b = explore(settop(), via_text);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  expect_same_front(a.front, b.front);
  expect_same_counters(a.stats, b.stats);
}

TEST(ExploreCheckpoint, RejectsCorruptInput) {
  EXPECT_FALSE(ExploreCheckpoint::from_string("").ok());
  EXPECT_FALSE(ExploreCheckpoint::from_string("not json").ok());
  EXPECT_FALSE(ExploreCheckpoint::from_string("[1, 2, 3]").ok());
  EXPECT_FALSE(ExploreCheckpoint::from_string("{}").ok());

  std::string text = interrupted_checkpoint().to_string();
  const std::size_t format = text.find("sdf-explore-checkpoint");
  ASSERT_NE(format, std::string::npos);
  std::string wrong_format = text;
  wrong_format.replace(format, 22, "sdf-something-elsexxxx");
  EXPECT_FALSE(ExploreCheckpoint::from_string(wrong_format).ok());
}

TEST(ExploreCheckpoint, ResumeValidatesSpecDigest) {
  const ExploreCheckpoint ck = interrupted_checkpoint();
  const SpecificationGraph other = models::make_tv_decoder_spec();
  ExploreOptions options = full_walk();
  options.resume = &ck;
  const ExploreResult result = explore(other, options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.front.empty());
}

TEST(ExploreCheckpoint, ResumeValidatesFrontAffectingOptions) {
  const ExploreCheckpoint ck = interrupted_checkpoint();
  ExploreOptions options = full_walk();
  options.use_branch_bound = !options.use_branch_bound;
  options.resume = &ck;
  const ExploreResult result = explore(settop(), options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.front.empty());
}

// ---- budget-abandoned is not infeasible ------------------------------------

TEST(AnytimeBinding, BudgetAbortIsDistinguishedFromInfeasibility) {
  const CompiledSpec& cs = settop().compiled();
  AllocSet everything = cs.make_alloc_set();
  for (std::size_t i = 0; i < cs.unit_count(); ++i) everything.set(i);

  // Unbudgeted, the full allocation is feasible.
  ImplementationStats free_stats;
  ASSERT_TRUE(
      build_implementation(cs, everything, {}, &free_stats).has_value());
  EXPECT_FALSE(free_stats.budget_exceeded());
  ASSERT_GT(free_stats.solver_nodes, 1u);

  // With a one-node budget the construction aborts: the result is nullopt
  // like an infeasible allocation, but the stats say "budget", not
  // "proven infeasible".
  RunBudget budget;
  budget.max_solver_nodes = 1;
  BudgetTracker tracker(budget);
  ImplementationOptions options;
  options.solver.budget = &tracker;
  ImplementationStats stats;
  EXPECT_FALSE(
      build_implementation(cs, everything, options, &stats).has_value());
  EXPECT_TRUE(stats.budget_exceeded());
  EXPECT_GT(stats.budget_aborted_calls, 0u);
}

// ---- the other engines wind down gracefully --------------------------------

TEST(AnytimeExhaustive, AllocationBudgetStopsTheSweep) {
  RunBudget budget;
  budget.max_allocations = 3;
  const ExhaustiveResult result =
      explore_exhaustive(models::make_tv_decoder_spec(), {}, 20, budget);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocations);
  EXPECT_LE(result.stats.subsets, 3u);
}

TEST(AnytimeEvolutionary, AllocationBudgetStopsTheRun) {
  EaOptions options;
  options.population = 8;
  options.generations = 50;
  options.budget.max_allocations = 10;
  const EaResult result = explore_evolutionary(settop(), options);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocations);
  EXPECT_LE(result.stats.evaluations, 10u);
}

TEST(AnytimeIncremental, AllocationBudgetStopsWithUpgradeCertificate) {
  ExploreOptions options;
  options.budget.max_allocations = 2;
  const UpgradeResult result =
      explore_upgrades(settop(), settop().compiled().make_alloc_set(), options);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocations);
  // The certificate is in upgrade-cost terms: the front is exact for every
  // upgrade strictly cheaper than this bound.
  EXPECT_GT(result.stats.exact_up_to_cost, 0.0);
  EXPECT_FALSE(result.stats.exhausted);
}

}  // namespace
}  // namespace sdf
