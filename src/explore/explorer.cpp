#include "explore/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "bind/bind_cache.hpp"
#include "explore/allocation_enum.hpp"
#include "explore/incremental.hpp"
#include "explore/uncertain.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "graph/eca.hpp"
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
  kAborted,       ///< budget tripped before/while evaluating: re-evaluate
  kDominated,     ///< §5 "obviously not Pareto-optimal" filter
  kImpossible,    ///< not root-activatable
  kBoundSkipped,  ///< flexibility estimate cannot beat the incumbent
  kAttempted,     ///< binding construction ran; `impl` set iff feasible
  kRefused,       ///< past the activation limit; `refusal` says why
};

/// One band slot.  Slots are reused from band to band, and the stream
/// writes each candidate into its slot's set, so draining a band allocates
/// nothing.
struct BandSlot {
  AllocSet alloc;
  double cost = 0.0;
  std::size_t level = 0;  ///< contiguous equal-cost group within the band
  Verdict verdict = Verdict::kAborted;
  double estimate = 0.0;  ///< flexibility estimate, once root-activatable
  std::optional<Implementation> impl;
  std::string refusal;
  ImplementationStats work;
  double filter_seconds = 0.0;     ///< measured only when timed
  double implement_seconds = 0.0;  ///< measured only when timed
};

/// Interval-cost acceptance (`explore_uncertain`): the merge fills `front`
/// in place of the crisp staircase, and `points` holds its payload by tag.
struct IntervalArchive {
  const IntervalCostModel& model;
  IntervalFront front;
  std::vector<UncertainPoint> points;
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
  const IntervalArchive* interval;  ///< non-null iff costs are intervals
  BudgetTracker& tracker;
  /// Per-phase CPU timers; only worth their clock reads when a pool runs.
  bool timed;
};

/// The one-thread flexibility bound: whether the slot's estimate cannot
/// beat the incumbent `f`, or, under interval costs, whether the archive
/// dominates even its optimistic point.
bool beaten(const Evaluation& ev, const BandSlot& slot, double f) {
  if (!ev.options.use_flexibility_bound) return false;
  if (ev.interval != nullptr) {
    if (slot.estimate <= 0.0) return false;
    const IntervalPoint optimistic{ev.interval->model.cost(slot.alloc),
                                   1.0 / slot.estimate, 0};
    return ev.interval->front.certainly_dominated(optimistic);
  }
  return ev.options.collect_equivalents ? slot.estimate < f
                                        : slot.estimate <= f;
}

/// The cheap filters, in §4/§5 order.  `committed_f` is the incumbent after
/// the last merged band; `level_best` holds the flexibilities implemented
/// so far in this band, per cost level (see the file comment in
/// explorer.hpp for why both bounds are safe).  Under interval costs the
/// bound asks the archive instead.
Verdict filter(const Evaluation& ev, double committed_f,
               const std::vector<AtomicMax>& level_best, BandSlot& slot) {
  const ExploreOptions& options = ev.options;
  if (options.prune_dominated_allocations &&
      obviously_dominated(ev.cs, ev.dominance, slot.alloc,
                          ev.dominance_scope))
    return Verdict::kDominated;
  const Activatability act(ev.cs, slot.alloc);
  if (!act.root_activatable()) return Verdict::kImpossible;
  const std::optional<double> est = act.estimated_flexibility();
  SDF_CHECK(est.has_value(), "possible allocation without estimate");
  slot.estimate = *est;
  if (ev.interval != nullptr)
    return beaten(ev, slot, 0.0) ? Verdict::kBoundSkipped : Verdict::kAttempted;

  // Everything that precedes this candidate's cost level in stream order
  // bounds it the way the one-thread incumbent would.
  double preceding = committed_f;
  for (std::size_t l = 0; l < slot.level; ++l)
    preceding = std::max(preceding, level_best[l].get());
  if (beaten(ev, slot, preceding)) return Verdict::kBoundSkipped;
  // Within the own (equal-cost) level the comparison stays strict in both
  // modes: a tie may be the winner or an equivalent.  A later candidate of
  // the level may have set it, where the one-thread run attempts this one:
  // the skip must not hide a refusal that run meets.
  if (options.use_flexibility_bound &&
      *est < level_best[slot.level].get() &&
      count_ecas(ev.cs.problem(), act.clusters()) <=
          static_cast<double>(kEcaLimit))
    return Verdict::kBoundSkipped;
  return Verdict::kAttempted;
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
  std::optional<Implementation> impl;
  try {
    impl =
        build_implementation(ev.cs, slot.alloc, ev.implementation, &slot.work);
  } catch (const std::length_error& e) {
    // The merge decides whether the one-thread run would meet it.
    slot.verdict = Verdict::kRefused;
    slot.refusal = e.what();
    return;
  }
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
    case Verdict::kBoundSkipped:
    case Verdict::kRefused:  // merged only where the bound skips it
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

}  // namespace

void ExploreStats::add(const ImplementationStats& work) {
  solver_calls += work.solver_calls;
  solver_nodes += work.solver_nodes;
  cache_hits_feasible += work.cache_hits_feasible;
  cache_hits_infeasible += work.cache_hits_infeasible;
  cache_revalidations += work.cache_revalidations;
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

/// EXPLORE over the supersets of `deployed`, cost-ordered by the units
/// they add to it.  `explore()` runs it on the empty base (null, so a cold
/// spec compiles inside the timed index build); `explore_upgrades` on a
/// deployed platform, whose implemented flexibility `base_f` is the first
/// incumbent.  Front points keep their full allocation cost; the
/// universe and the certificate count only what lies outside the base.
/// Only an empty base may resume: the checkpoint digests do not cover it.
/// `explore_uncertain` passes an `interval` archive: the merge fills it
/// and leaves the crisp front empty, the flexibility bound asks it, and
/// the subtree bound, which compares crisp flexibilities, stays off.
ExploreResult explore_supersets(const SpecificationGraph& spec,
                                const ExploreOptions& options,
                                const AllocSet* deployed, double base_f,
                                IntervalArchive* interval = nullptr) {
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
  const AllocSet base = deployed != nullptr ? *deployed : cs.make_alloc_set();
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

  double f_cur = base_f;  // incumbent: merged candidates only
  // The walk ends at the first candidate whose cost times `stop_ratio`
  // exceeds `stop_cost`: past the cost tie of the maximal-flexibility point
  // with equivalents, or past the upper cost of the cheapest archived one
  // under interval costs.  Infinite until the maximum is reached.
  double stop_cost = std::numeric_limits<double>::infinity();
  const double stop_ratio =
      interval != nullptr ? interval->model.stop_ratio() : 1.0;
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
        stop_cost = result.front.back().cost;
    }
    apply_checkpoint_counters(state.counters, result.stats);
    result.stats.resumed = true;
  }

  if (options.use_branch_bound && interval == nullptr) {
    // Runs during band assembly against the committed incumbent — a
    // (possibly stale) lower bound on the one-thread f_cur at the same
    // stream position, so it can only prune less, never wrongly.
    stream.set_branch_bound([&, collect = options.collect_equivalents](
                                const AllocSet& potential) {
      if (f_cur <= 0.0) return true;  // nothing to beat yet
      const std::optional<double> est = estimate_flexibility(cs, potential);
      if (!est.has_value()) return false;
      // Equivalent collection must keep subtrees that can still *tie* the
      // incumbent, not only beat it.
      return collect ? *est >= f_cur : *est > f_cur;
    });
  }

  // Band sizing.  One thread: bands of one, no pool.  More threads: the
  // merge thread evaluates candidates of the band too, so the pool holds
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
                      interval,
                      tracker,
                      pooled};
  std::vector<BandSlot> band;  // grows to the peak band size, then reused
  std::vector<AtomicMax> level_best(max_capacity);

  // Stream-order candidates the budget forced us to abandon: the band
  // suffix from the first aborted slot, plus the candidate whose
  // allocation charge was refused.  First entry bounds the certificate.
  std::vector<AllocSet> unprocessed;
  bool done = false;           // merge decided the search is over
  bool last_band = false;      // stream dry / walk limit
  bool ran_dry = false;        // the stream returned nothing
  bool interrupted = false;    // run budget tripped or an evaluation failed
  bool alloc_cap_hit = false;  // cap detected pre-trip during assembly
  while (!done && !last_band && !interrupted) {
    // ---- assemble: drain candidates in stream order into one band --------
    const Clock::time_point ta = pooled ? Clock::now() : Clock::time_point{};
    std::size_t size = 0;
    std::size_t levels = 0;
    while (size < capacity) {
      // Drained straight into the next slot's set, whose storage is reused.
      if (size == band.size()) band.emplace_back();
      BandSlot& slot = band[size];
      if (!pending.empty()) {
        slot.alloc = std::move(pending.front());
        pending.pop_front();
      } else if (!stream.next(slot.alloc)) {  // ran dry: exploration complete
        last_band = ran_dry = true;
        break;
      }
      if (slot.alloc == base) continue;  // the base costs no candidate budget
      if (!tracker.allocation_budget_left()) {
        // Probe the cap without tripping the (sticky) tracker: the band
        // assembled so far was already charged and must still evaluate.
        // The kAllocations trip is recorded after the merge.
        alloc_cap_hit = true;
        unprocessed.push_back(std::move(slot.alloc));
        interrupted = true;
        break;
      }
      if (!tracker.charge_allocation()) {
        unprocessed.push_back(std::move(slot.alloc));
        interrupted = true;
        break;
      }
      ++result.stats.candidates_generated;
      // Costs group a band into levels and end the walk; a band of one
      // needs them only for the latter.
      const double cost = capacity > 1 || std::isfinite(stop_cost)
                              ? cs.allocation_cost(slot.alloc)
                              : 0.0;
      if (cost * stop_ratio > stop_cost) {
        last_band = true;
        break;
      }
      // Levels group *consecutive* equal-cost candidates; the bound in
      // `filter` relies on every lower level preceding this one in stream
      // order.
      if (size == 0 || cost != band[size - 1].cost)
        level_best[levels++].reset();
      slot.cost = cost;
      slot.level = levels - 1;
      ++size;
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
      } catch (...) {
        eval_status = task_error(std::current_exception());
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

    // ---- merge: stream order, the §4 acceptance rules --------------------
    // Only the band prefix up to the first abandoned or refused candidate
    // is merged; the suffix (abandoned or not) keeps the merge gap-free in
    // stream order and is queued for re-evaluation, its work never charged.
    const Clock::time_point tm = pooled ? Clock::now() : Clock::time_point{};
    std::uint64_t attempted = 0;
    for (std::size_t i = 0; i < cutoff; ++i) {
      BandSlot& slot = band[i];
      // A worker may have attempted a candidate against a staler incumbent
      // than the one-thread run's.  That run meets it with the incumbent
      // merged so far, and stops at the refusal unless the walk is over or
      // the bound skips it; so does every thread count.
      if (slot.verdict == Verdict::kRefused && !done &&
          slot.cost * stop_ratio <= stop_cost && !beaten(ev, slot, f_cur)) {
        tracker.note_worker_error();
        result.status = Error{"candidate {" +
                              spec.allocation_names(slot.alloc) +
                              "}: " + slot.refusal};
        cutoff = i;
        break;
      }
      account(slot, result.stats);
      if (slot.verdict == Verdict::kAttempted) ++attempted;
      if (done) continue;
      if (slot.cost * stop_ratio > stop_cost) {
        done = true;
        continue;
      }
      if (!slot.impl.has_value()) continue;
      Implementation& impl = *slot.impl;
      if (interval != nullptr) {
        const Interval cost = interval->model.cost(slot.alloc);
        if (!interval->front.insert(IntervalPoint{
                cost, 1.0 / impl.flexibility, interval->points.size()}))
          continue;
        if (impl.flexibility >= result.max_flexibility - 1e-9)
          stop_cost = std::min(stop_cost, cost.hi);
        interval->points.push_back(UncertainPoint{std::move(impl), cost});
        continue;
      }
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
          stop_cost = result.front.back().cost;
        else
          done = true;
      }
    }
    if (pooled) result.stats.merge_seconds += seconds_since(tm);
    if (cutoff < size) interrupted = true;

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
  // Only a dry stream exhausts the run: not the maximal-flexibility stop,
  // the walk limit or a budget.
  result.stats.exhausted = ran_dry && !done && !interrupted;
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
    // The stream is done: its frontier moves into the checkpoint uncopied.
    Result<ExploreCheckpoint> ck = build_explore_checkpoint(
        spec, options, result.front, unprocessed, stream.take_cursor(),
        checkpoint_counters(result.stats));
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
  return explore_supersets(spec, options, nullptr, 0.0);
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
  try {
    if (const auto deployed = build_implementation(cs, existing, base_impl))
      result.baseline_flexibility = deployed->flexibility;
  } catch (const std::length_error& e) {
    result.status = Error{std::string("deployed platform: ") + e.what()};
    return result;
  }

  ExploreResult run = explore_supersets(spec, run_options, &existing,
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

UncertainExploreResult explore_uncertain(
    const SpecificationGraph& spec, const UncertainExploreOptions& options) {
  const IntervalCostModel model(spec, options);
  IntervalArchive archive{model, {}, {}};
  ExploreResult run =
      explore_supersets(spec, ExploreOptions{}, nullptr, 0.0, &archive);
  // Only a failed evaluation ends a run without a budget early: rethrow.
  if (!run.status.ok()) throw std::runtime_error(run.status.error().message);
  UncertainExploreResult result{{}, run.max_flexibility, run.stats};
  for (const IntervalPoint& p : archive.front.points())
    result.front.push_back(std::move(archive.points[p.tag]));
  return result;
}

}  // namespace sdf
