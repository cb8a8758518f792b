#include "explore/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <utility>

#include "analysis/analysis.hpp"
#include "bind/bind_cache.hpp"
#include "explore/allocation_enum.hpp"
#include "explore/incremental.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sdf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Monotone shared maximum (flexibilities are non-negative).
class AtomicMax {
 public:
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  void update(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double get() const {
    return value_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// How far evaluation took a candidate.  The merge turns verdicts into work
/// counters, so a slot that is never merged (abandoned by the budget, or
/// part of a failed band) charges nothing.
enum class Verdict : std::uint8_t {
  kAborted,         ///< budget tripped before/while evaluating: re-evaluate
  kDominated,       ///< §5 "obviously not Pareto-optimal" filter
  kAnalysisPruned,  ///< the analyzer's relaxation proves it infeasible
  kImpossible,      ///< not root-activatable
  kBoundSkipped,    ///< flexibility estimate cannot beat the incumbent
  kAttempted,       ///< binding construction ran; `impl` set iff feasible
};

/// One band slot.  Slots are reused from band to band, so evaluation
/// allocates nothing per candidate beyond the stream's own sets.
struct BandSlot {
  AllocSet alloc;
  double cost = 0.0;
  std::size_t level = 0;  ///< contiguous equal-cost group within the band
  Verdict verdict = Verdict::kAborted;
  std::optional<Implementation> impl;
  ImplementationStats work;
  double filter_seconds = 0.0;     ///< measured only when timed
  double implement_seconds = 0.0;  ///< measured only when timed
};

/// Read-only inputs of candidate evaluation, shared by every worker.
struct Evaluation {
  const CompiledSpec& cs;
  const ExploreOptions& options;
  const ImplementationOptions& implementation;
  const DominanceContext& dominance;
  /// Null, or the units outside a non-empty base: the only units the §5
  /// filter judges, since a deployed platform is a sunk cost and may hold
  /// units no upgrade uses.
  const AllocSet* dominance_scope;
  /// Non-null iff the analyzer's relaxation also filters candidates.
  const SpecAnalysis* analysis_bound;
  BudgetTracker& tracker;
  /// Per-phase CPU timers; only worth their clock reads when a pool runs.
  bool timed;
};

/// The cheap filters, in §4/§5 order.  `committed_f` is the incumbent after
/// the last merged band; `level_best` holds the flexibilities implemented
/// so far in this band, per cost level (see the file comment in
/// explorer.hpp for why both bounds are safe).
Verdict filter(const Evaluation& ev, double committed_f,
               const std::vector<AtomicMax>& level_best,
               const BandSlot& slot) {
  const ExploreOptions& options = ev.options;
  if (options.prune_dominated_allocations &&
      obviously_dominated(ev.cs, ev.dominance, slot.alloc,
                          ev.dominance_scope))
    return Verdict::kDominated;
  // Sound proof that no activation of this allocation can be bound; skip
  // before even the activatability pass.
  if (ev.analysis_bound != nullptr &&
      ev.analysis_bound->allocation_infeasible(slot.alloc))
    return Verdict::kAnalysisPruned;
  const Activatability act(ev.cs, slot.alloc);
  if (!act.root_activatable()) return Verdict::kImpossible;
  const std::optional<double> est = act.estimated_flexibility();
  SDF_CHECK(est.has_value(), "possible allocation without estimate");
  if (!options.use_flexibility_bound) return Verdict::kAttempted;

  // Everything that precedes this candidate's cost level in stream order
  // bounds it the way the one-thread incumbent would.
  double preceding = committed_f;
  for (std::size_t l = 0; l < slot.level; ++l)
    preceding = std::max(preceding, level_best[l].get());
  const bool below_preceding =
      options.collect_equivalents ? *est < preceding : *est <= preceding;
  // Within the own (equal-cost) level the comparison stays strict in both
  // modes: a tie may be the winner or an equivalent.
  const bool below_level = *est < level_best[slot.level].get();
  return below_preceding || below_level ? Verdict::kBoundSkipped
                                        : Verdict::kAttempted;
}

/// The per-candidate work of EXPLORE minus every front/incumbent mutation
/// (those happen in stream order at merge).
void evaluate(const Evaluation& ev, double committed_f,
              std::vector<AtomicMax>& level_best, BandSlot& slot) {
  SDF_FAULT_POINT("explore.evaluate");
  slot.verdict = Verdict::kAborted;
  slot.impl.reset();
  // A tripped budget winds the band down fast: the slot is queued for
  // re-evaluation after resume.
  if (ev.tracker.exhausted()) return;
  const Clock::time_point t0 = ev.timed ? Clock::now() : Clock::time_point{};
  const Verdict verdict = filter(ev, committed_f, level_best, slot);
  if (ev.timed) slot.filter_seconds = seconds_since(t0);
  if (verdict != Verdict::kAttempted) {
    slot.verdict = verdict;
    return;
  }

  const Clock::time_point t1 = ev.timed ? Clock::now() : Clock::time_point{};
  slot.work = ImplementationStats{};
  std::optional<Implementation> impl =
      build_implementation(ev.cs, slot.alloc, ev.implementation, &slot.work);
  if (ev.timed) slot.implement_seconds = seconds_since(t1);
  // Abandoned mid-evaluation: unknown, never infeasible.
  if (slot.work.budget_exceeded()) return;
  slot.verdict = Verdict::kAttempted;
  if (!impl.has_value()) return;
  level_best[slot.level].update(impl->flexibility);
  slot.impl = std::move(impl);
}

/// Charges one merged slot's work to the run's counters.
void account(const BandSlot& slot, ExploreStats& stats) {
  stats.filter_cpu_seconds += slot.filter_seconds;
  switch (slot.verdict) {
    case Verdict::kAborted:
    case Verdict::kImpossible:
      return;
    case Verdict::kDominated:
      ++stats.dominated_skipped;
      return;
    case Verdict::kAnalysisPruned:
      ++stats.analysis_pruned;
      return;
    case Verdict::kBoundSkipped:
      ++stats.possible_allocations;
      ++stats.flexibility_estimations;
      ++stats.bound_skipped;
      return;
    case Verdict::kAttempted:
      ++stats.possible_allocations;
      ++stats.flexibility_estimations;
      ++stats.implementation_attempts;
      stats.add(slot.work);
      stats.implement_cpu_seconds += slot.implement_seconds;
      return;
  }
}

/// Points `impl` at run-local binding and hierarchical sub-solve caches,
/// unless the caller supplied its own or turned them off.  They are shared
/// by every worker.  Each only skips work whose verdict is already proven,
/// so the front does not depend on the thread schedule.  Derived data:
/// rebuilt from scratch on resume (deliberately not checkpointed — see
/// docs/ROBUSTNESS.md).
void adopt_run_caches(ImplementationOptions& impl, BindCache& bind_cache,
                      HierCache& hier_cache) {
  if (impl.use_bind_cache && impl.bind_cache == nullptr)
    impl.bind_cache = &bind_cache;
  if (impl.use_hier && impl.hier_cache == nullptr)
    impl.hier_cache = &hier_cache;
}

}  // namespace

void ExploreStats::add(const ImplementationStats& work) {
  solver_calls += work.solver_calls;
  solver_nodes += work.solver_nodes;
  cache_hits_feasible += work.cache_hits_feasible;
  cache_hits_infeasible += work.cache_hits_infeasible;
  cache_revalidations += work.cache_revalidations;
  analysis_pruned += work.analysis_pruned;
  hier_subsolves += work.hier_subsolves;
  hier_hits += work.hier_hits;
}

std::vector<ParetoPoint> ExploreResult::tradeoff_curve() const {
  std::vector<ParetoPoint> out;
  out.reserve(front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    out.push_back(ParetoPoint{front[i].cost, 1.0 / front[i].flexibility, i});
  }
  return out;
}

namespace {

/// EXPLORE over the supersets of `base`, cost-ordered by the units they
/// add to it.  `explore()` runs it on the empty base; `explore_upgrades`
/// on a deployed platform, whose implemented flexibility `base_f` is the
/// first incumbent.  Front points keep their full allocation cost; the
/// universe and the certificate count only what lies outside the base.
/// Only an empty base may resume: the checkpoint digests do not cover it.
ExploreResult explore_supersets(const SpecificationGraph& spec,
                                const ExploreOptions& options,
                                const AllocSet& base, double base_f) {
  const auto t0 = Clock::now();

  const std::size_t threads = options.num_threads != 0
                                  ? options.num_threads
                                  : ThreadPool::hardware_threads();
  ExploreResult result;
  // Warm the compiled query index once up front, before any worker reads
  // it; every downstream phase (dominance filter, activatability, solver)
  // reads from it.
  const CompiledSpec& cs = spec.compiled();
  result.stats.index_build_seconds = seconds_since(t0);
  result.max_flexibility = max_flexibility(cs.problem());
  result.stats.universe = cs.unit_count() - base.count();
  result.stats.raw_design_points =
      std::pow(2.0, static_cast<double>(result.stats.universe));
  result.stats.threads = threads;

  BudgetTracker tracker(options.budget);
  // Candidate evaluation charges every solver node to the run budget.
  ImplementationOptions eval_impl = options.implementation;
  eval_impl.solver.budget = &tracker;
  BindCache bind_cache;
  HierCache hier_cache;
  adopt_run_caches(eval_impl, bind_cache, hier_cache);
  // Run-local static analyzer: sound infeasibility proofs skip solver
  // searches without changing verdicts (see bind/implementation.hpp).  All
  // its queries are const, so workers share it.
  std::optional<SpecAnalysis> analysis_store;
  if (eval_impl.use_analysis && eval_impl.analysis == nullptr) {
    analysis_store.emplace(cs, AnalysisOptions{eval_impl.solver});
    eval_impl.analysis = &*analysis_store;
  }
  const SpecAnalysis* analysis =
      eval_impl.use_analysis ? eval_impl.analysis : nullptr;

  double f_cur = base_f;  // incumbent: merged candidates only
  // When collecting equivalents, the search ends after walking through the
  // cost tie of the maximal-flexibility point; -1 = not yet reached.
  double max_tie_cost = -1.0;
  const DominanceContext dominance(cs);
  AllocSet outside_base = cs.make_alloc_set();
  for (std::size_t i = 0; i < cs.unit_count(); ++i)
    if (!base.test(i)) outside_base.set(i);
  CostOrderedAllocations stream(cs, base);
  // Candidates a prior interrupted run drained but never evaluated; always
  // consumed before the stream (they precede it in stream order).
  std::deque<AllocSet> pending;

  if (options.resume != nullptr) {
    Result<ExploreResumeState> restored =
        restore_explore_checkpoint(*options.resume, spec, options, stream);
    if (!restored.ok()) {
      result.status = restored.error();
      return result;
    }
    ExploreResumeState& state = restored.value();
    result.front = std::move(state.front);
    for (AllocSet& alloc : state.pending)
      pending.push_back(std::move(alloc));
    if (!result.front.empty()) {
      f_cur = result.front.back().flexibility;
      if (options.stop_at_max_flexibility && options.collect_equivalents &&
          f_cur >= result.max_flexibility - 1e-9)
        max_tie_cost = result.front.back().cost;
    }
    apply_checkpoint_counters(state.counters, result.stats);
    result.stats.resumed = true;
  }

  const bool analysis_bound = options.use_analysis_bound && analysis != nullptr;
  if (options.use_branch_bound || analysis_bound) {
    // Runs during band assembly against the committed incumbent — a
    // (possibly stale) lower bound on the one-thread f_cur at the same
    // stream position, so it can only prune less, never wrongly.
    stream.set_branch_bound([&, analysis_bound,
                             branch_bound = options.use_branch_bound,
                             collect = options.collect_equivalents](
                                const AllocSet& potential) {
      // Relaxation bound (opt-in): infeasibility is monotone downward in
      // the allocation, so a proof on the optimistic completion covers
      // every descendant of this subtree.
      if (analysis_bound && analysis->allocation_infeasible(potential)) {
        ++result.stats.analysis_pruned;
        return false;
      }
      if (!branch_bound) return true;
      if (f_cur <= 0.0) return true;  // nothing to beat yet
      const std::optional<double> est = estimate_flexibility(cs, potential);
      if (!est.has_value()) return false;
      // Equivalent collection must keep subtrees that can still *tie* the
      // incumbent, not only beat it.
      return collect ? *est >= f_cur : *est > f_cur;
    });
  }

  // Band sizing.  One thread: bands of one, no pool.  More threads: the
  // merge thread helps evaluate via ThreadPool::wait_idle, so the pool holds
  // one worker fewer, and the capacity adapts between its bounds — bands
  // whose candidates mostly die in the cheap filters double it so the merge
  // barrier stops dominating, attempt-heavy bands halve it so workers
  // evaluate against a fresher incumbent.  The merge replays stream order,
  // so sizing only shifts wall time, never the front.
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);
  const bool pooled = pool.has_value();
  std::size_t capacity = pooled ? std::max<std::size_t>(threads * 8, 16) : 1;
  const std::size_t min_capacity =
      pooled ? std::max<std::size_t>(threads, 4) : 1;
  const std::size_t max_capacity =
      pooled ? std::max<std::size_t>(capacity, 4096) : 1;
  const std::uint64_t band_target = std::max<std::size_t>(threads * 2, 8);

  const Evaluation ev{cs,
                      options,
                      eval_impl,
                      dominance,
                      base.none() ? nullptr : &outside_base,
                      analysis_bound ? analysis : nullptr,
                      tracker,
                      pooled};
  std::vector<BandSlot> band;  // grows to the peak band size, then reused
  std::vector<AtomicMax> level_best(max_capacity);

  // Stream-order candidates the budget forced us to abandon: the band
  // suffix from the first aborted slot, plus the candidate whose
  // allocation charge was refused.  First entry bounds the certificate.
  std::vector<AllocSet> unprocessed;
  bool done = false;           // merge decided the search is over
  bool last_band = false;      // stream dry / candidate budget exhausted
  bool interrupted = false;    // run budget tripped or an evaluation failed
  bool alloc_cap_hit = false;  // cap detected pre-trip during assembly
  while (!done && !last_band && !interrupted) {
    // ---- assemble: drain candidates in stream order into one band --------
    const Clock::time_point ta = pooled ? Clock::now() : Clock::time_point{};
    std::size_t size = 0;
    std::size_t levels = 0;
    while (size < capacity) {
      std::optional<AllocSet> a;
      if (!pending.empty()) {
        a = std::move(pending.front());
        pending.pop_front();
      } else {
        a = stream.next();
      }
      if (!a.has_value()) {  // stream ran dry: exploration complete
        last_band = true;
        break;
      }
      if (*a == base) continue;  // the base costs no candidate budget
      if (!tracker.allocation_budget_left()) {
        // Probe the cap without tripping the (sticky) tracker: the band
        // assembled so far was already charged and must still evaluate.
        // The kAllocations trip is recorded after the merge.
        alloc_cap_hit = true;
        unprocessed.push_back(std::move(*a));
        interrupted = true;
        break;
      }
      if (!tracker.charge_allocation()) {
        unprocessed.push_back(std::move(*a));
        interrupted = true;
        break;
      }
      ++result.stats.candidates_generated;
      if (options.max_candidates != 0 &&
          result.stats.candidates_generated > options.max_candidates) {
        last_band = true;
        break;
      }
      // Costs group a band into levels and end an equivalents walk; a band
      // of one needs them only for the latter.
      const double cost = capacity > 1 || max_tie_cost >= 0.0
                              ? cs.allocation_cost(*a)
                              : 0.0;
      if (max_tie_cost >= 0.0 && cost > max_tie_cost) {
        last_band = true;
        break;
      }
      // Levels group *consecutive* equal-cost candidates; the bound in
      // `filter` relies on every lower level preceding this one in stream
      // order.
      if (size == 0 || cost != band[size - 1].cost)
        level_best[levels++].reset();
      if (size == band.size()) band.emplace_back();
      BandSlot& slot = band[size++];
      slot.alloc = std::move(*a);
      slot.cost = cost;
      slot.level = levels - 1;
    }
    if (pooled) result.stats.enumerate_seconds += seconds_since(ta);
    if (size == 0) break;
    ++result.stats.bands;
    result.stats.peak_band_size = std::max(result.stats.peak_band_size, size);

    // ---- evaluate: every candidate of the band, concurrently if pooled ---
    const Clock::time_point te = pooled ? Clock::now() : Clock::time_point{};
    const double committed = f_cur;
    Status eval_status;
    if (pooled) {
      eval_status = pool->parallel_for(size, [&](std::size_t i) {
        evaluate(ev, committed, level_best, band[i]);
      });
    } else {
      try {
        for (std::size_t i = 0; i < size; ++i)
          evaluate(ev, committed, level_best, band[i]);
      } catch (const std::exception& e) {
        eval_status = Error{std::string("worker task failed: ") + e.what()};
      }
    }
    if (pooled) result.stats.evaluate_seconds += seconds_since(te);

    // A failed evaluation makes every outcome of this band ambiguous: merge
    // none of it, queue the whole band for re-evaluation, and surface the
    // error.  The committed front is untouched, so the run stays resumable.
    std::size_t cutoff = size;
    if (!eval_status.ok()) {
      tracker.note_worker_error();
      result.status = eval_status;
      cutoff = 0;
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        if (band[i].verdict == Verdict::kAborted) {
          cutoff = i;
          break;
        }
      }
    }
    if (cutoff < size) interrupted = true;

    // ---- merge: stream order, the §4 acceptance rules --------------------
    // Only the band prefix up to the first abandoned candidate is merged;
    // the suffix (abandoned or not) keeps the merge gap-free in stream
    // order and is queued for re-evaluation, its work never charged.
    const Clock::time_point tm = pooled ? Clock::now() : Clock::time_point{};
    std::uint64_t attempted = 0;
    for (std::size_t i = 0; i < cutoff; ++i) {
      BandSlot& slot = band[i];
      account(slot, result.stats);
      if (slot.verdict == Verdict::kAttempted) ++attempted;
      if (done) continue;
      if (max_tie_cost >= 0.0 && slot.cost > max_tie_cost) {
        done = true;
        continue;
      }
      if (!slot.impl.has_value()) continue;
      Implementation& impl = *slot.impl;
      if (impl.flexibility <= f_cur) {
        // Equivalent Pareto point: same cost and flexibility as the current
        // front point, different allocation.
        if (options.collect_equivalents && !result.front.empty() &&
            impl.flexibility == f_cur &&
            impl.cost == result.front.back().cost &&
            !(impl.units == result.front.back().units)) {
          result.front.back().equivalents.push_back(std::move(impl));
        }
        continue;
      }
      // Same-cost predecessors with lower flexibility are dominated now.
      while (!result.front.empty() &&
             result.front.back().cost >= impl.cost) {
        result.front.pop_back();
      }
      log_debug(strprintf("EXPLORE: new Pareto point cost=%s f=%s (%s)",
                          format_double(impl.cost).c_str(),
                          format_double(impl.flexibility).c_str(),
                          spec.allocation_names(impl.units).c_str()));
      f_cur = impl.flexibility;
      result.front.push_back(std::move(impl));

      if (options.stop_at_max_flexibility &&
          f_cur >= result.max_flexibility - 1e-9) {
        // With equivalents, keep walking only through the cost tie of the
        // maximal point; the stream is cost-ordered, so the first strictly
        // costlier candidate ends the search.
        if (options.collect_equivalents)
          max_tie_cost = result.front.back().cost;
        else
          done = true;
      }
    }
    if (pooled) result.stats.merge_seconds += seconds_since(tm);

    // ---- adapt: steer the next band's capacity by this band's yield ------
    if (pooled && cutoff == size) {
      if (attempted * 2 < band_target)
        capacity = std::min(capacity * 2, max_capacity);
      else if (attempted > 2 * band_target)
        capacity = std::max(capacity / 2, min_capacity);
    }

    if (cutoff < size && !done) {
      // Roll back the suffix's generation charges and queue it (in stream
      // order, ahead of the charge-refused candidate if any).
      result.stats.candidates_generated -= size - cutoff;
      std::vector<AllocSet> tail;
      tail.reserve(size - cutoff + unprocessed.size());
      for (std::size_t i = cutoff; i < size; ++i) {
        // After a failed evaluation verdicts are stale, and the band was
        // abandoned for the error, not the budget.
        if (eval_status.ok() && band[i].verdict == Verdict::kAborted)
          ++result.stats.budget_abandoned;
        tail.push_back(std::move(band[i].alloc));
      }
      for (AllocSet& a : unprocessed) tail.push_back(std::move(a));
      unprocessed = std::move(tail);
    }
  }

  // `done` wins over a late interruption: once the merge proves the search
  // over, leftover pending work is irrelevant.
  interrupted = interrupted && !done;
  result.stats.exhausted =
      !interrupted && (!options.stop_at_max_flexibility ||
                       f_cur < result.max_flexibility - 1e-9);
  result.stats.branches_pruned = stream.pruned();
  result.stats.frontier_remaining = stream.frontier_size();

  if (interrupted) {
    // Leftover resume candidates follow the band entries in stream order.
    for (AllocSet& rest : pending) unprocessed.push_back(std::move(rest));
    SDF_CHECK(!unprocessed.empty(), "interrupted run without pending work");
    if (alloc_cap_hit) tracker.note_allocations_exhausted();
    result.stats.stop_reason = tracker.reason();
    // Completeness certificate: the first unprocessed candidate is the
    // cheapest one the run never finished, so the front is exact below what
    // it adds to the base.
    result.stats.exact_up_to_cost =
        cs.allocation_cost(unprocessed.front()) - cs.allocation_cost(base);
    Result<ExploreCheckpoint> ck =
        build_explore_checkpoint(spec, options, result.front, unprocessed,
                                 stream, checkpoint_counters(result.stats));
    if (!ck.ok()) {
      result.status = ck.error();
      result.stats.wall_seconds = seconds_since(t0);
      return result;
    }
    result.checkpoint = std::move(ck).value();

    log_debug(strprintf(
        "EXPLORE: interrupted (%s) after %llu candidates; front exact below "
        "cost %s",
        stop_reason_name(result.stats.stop_reason),
        static_cast<unsigned long long>(result.stats.candidates_generated),
        format_double(result.stats.exact_up_to_cost).c_str()));
  }

  if (eval_impl.bind_cache != nullptr)
    result.stats.cache_entries = eval_impl.bind_cache->entries();
  if (eval_impl.hier_cache != nullptr)
    result.stats.cache_entries += eval_impl.hier_cache->entries();
  result.stats.flat_cache_entries = cs.flat_cache_entries();
  result.stats.flat_cache_evictions = cs.flat_cache_evictions();

  result.stats.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace

ExploreResult explore(const SpecificationGraph& spec,
                      const ExploreOptions& options) {
  return explore_supersets(spec, options, spec.make_alloc_set(), 0.0);
}

UpgradeResult explore_upgrades(const SpecificationGraph& spec,
                               const AllocSet& existing,
                               const ExploreOptions& options) {
  UpgradeResult result;
  if (options.resume != nullptr) {
    result.status = Error{
        "upgrade runs cannot be resumed: the checkpoint digests do not cover "
        "the deployed allocation"};
    return result;
  }
  const CompiledSpec& cs = spec.compiled();
  // The engine runs on these caches too, so the baseline evaluation warms
  // them for the upgrade candidates, every one a superset of it.
  ExploreOptions run_options = options;
  BindCache bind_cache;
  HierCache hier_cache;
  adopt_run_caches(run_options.implementation, bind_cache, hier_cache);
  ImplementationOptions base_impl = run_options.implementation;
  base_impl.solver.budget = nullptr;  // the baseline costs no run budget
  if (const auto deployed = build_implementation(cs, existing, base_impl))
    result.baseline_flexibility = deployed->flexibility;

  ExploreResult run = explore_supersets(spec, run_options, existing,
                                        result.baseline_flexibility);
  // Includes any device interface newly brought in by an added
  // configuration (charged once, like allocation_cost itself).
  const double existing_cost = cs.allocation_cost(existing);
  for (Implementation& impl : run.front) {
    const double upgrade_cost = impl.cost - existing_cost;
    result.front.push_back(Upgrade{std::move(impl), upgrade_cost});
  }
  result.max_flexibility = run.max_flexibility;
  result.stats = run.stats;
  result.status = std::move(run.status);
  return result;
}

}  // namespace sdf
