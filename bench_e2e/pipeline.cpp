#include "pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "analysis/analysis.hpp"
#include "bind/bind_cache.hpp"
#include "explore/allocation_enum.hpp"
#include "explore/report.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "lint/lint.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"
#include "trace.hpp"

namespace sdf::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// `sdf explore`'s flat-cache flags at their defaults.
constexpr std::size_t kFlatCacheEntries = 1024;
constexpr std::size_t kFlatCacheBytes = std::size_t{64} << 20;

/// The option set `replay_explore` reproduces: every front-affecting
/// option at its `ExploreOptions` default, no resume.
bool replayable(const ExploreOptions& o) {
  return o.prune_dominated_allocations && o.use_flexibility_bound &&
         o.use_branch_bound && !o.use_analysis_bound &&
         o.stop_at_max_flexibility && !o.collect_equivalents &&
         o.max_candidates == 0 && o.resume == nullptr;
}

}  // namespace

ExploreOptions bench_options(double deadline_seconds,
                             std::uint64_t max_allocations) {
  ExploreOptions options;
  options.num_threads = 1;
  options.budget.deadline_seconds = deadline_seconds;
  options.budget.max_allocations = max_allocations;
  return options;
}

ExploreResult replay_explore(const SpecificationGraph& spec,
                             const ExploreOptions& options,
                             LoopLayers& layers, Tracer* tracer) {
  ExploreResult result;
  if (!replayable(options)) {
    result.status = Error{"replay_explore: unsupported explore options"};
    return result;
  }
  const auto t0 = Clock::now();
  const CompiledSpec& cs = spec.compiled();
  result.stats.index_build_seconds = seconds(Clock::now() - t0);
  result.max_flexibility = max_flexibility(cs.problem());
  result.stats.universe = cs.unit_count();
  result.stats.raw_design_points =
      std::pow(2.0, static_cast<double>(result.stats.universe));

  BudgetTracker tracker(options.budget);
  ImplementationOptions eval_impl = options.implementation;
  eval_impl.solver.budget = &tracker;
  BindCache bind_cache;
  if (eval_impl.use_bind_cache && eval_impl.bind_cache == nullptr)
    eval_impl.bind_cache = &bind_cache;
  HierCache hier_cache;
  if (eval_impl.use_hier && eval_impl.hier_cache == nullptr)
    eval_impl.hier_cache = &hier_cache;
  std::optional<SpecAnalysis> analysis_store;
  if (eval_impl.use_analysis && eval_impl.analysis == nullptr) {
    const auto a0 = Clock::now();
    analysis_store.emplace(cs, AnalysisOptions{eval_impl.solver});
    const auto a1 = Clock::now();
    layers.analysis_s += seconds(a1 - a0);
    if (tracer != nullptr) tracer->span("analysis.build", a0, a1);
    eval_impl.analysis = &*analysis_store;
  }

  double f_cur = 0.0;
  const DominanceContext dominance(cs);
  CostOrderedAllocations stream(cs);
  stream.set_branch_bound([&](const AllocSet& potential) {
    if (f_cur <= 0.0) return true;
    const std::optional<double> est = estimate_flexibility(cs, potential);
    return est.has_value() && *est > f_cur;
  });

  // Each layer call is charged from the previous call's end, so the
  // loop's own bookkeeping lands on the call that follows it.
  const auto loop_start = Clock::now();
  auto mark = loop_start;
  const auto lap = [&mark](double& acc) {
    const auto now = Clock::now();
    acc += seconds(now - mark);
    mark = now;
  };
  LoopLayers spent;
  ExploreStats& st = result.stats;
  std::optional<AllocSet> in_flight;
  while (true) {
    std::optional<AllocSet> a = stream.next();
    lap(spent.enumerate_s);
    layers.peak_frontier_states =
        std::max<std::uint64_t>(layers.peak_frontier_states,
                                stream.frontier_size());
    if (!a.has_value()) break;
    if (a->none()) continue;

    if (!tracker.charge_allocation()) {
      in_flight = std::move(a);
      break;
    }
    const ExploreCheckpoint::Counters snapshot = checkpoint_counters(st);
    ++st.candidates_generated;

    const bool dominated = obviously_dominated(cs, dominance, *a);
    lap(spent.dominance_s);
    if (dominated) {
      ++st.dominated_skipped;
      continue;
    }

    const Activatability act(cs, *a);
    if (!act.root_activatable()) {
      lap(spent.flex_s);
      continue;
    }
    ++st.possible_allocations;
    const std::optional<double> est = act.estimated_flexibility();
    lap(spent.flex_s);
    ++st.flexibility_estimations;
    if (!est.has_value() || !(*est > f_cur)) {
      ++st.bound_skipped;
      continue;
    }

    ++st.implementation_attempts;
    ImplementationStats istats;
    std::optional<Implementation> impl =
        build_implementation(cs, *a, eval_impl, &istats);
    lap(spent.bind_s);
    st.solver_calls += istats.solver_calls;
    st.solver_nodes += istats.solver_nodes;
    st.cache_hits_feasible += istats.cache_hits_feasible;
    st.cache_hits_infeasible += istats.cache_hits_infeasible;
    st.cache_revalidations += istats.cache_revalidations;
    st.analysis_pruned += istats.analysis_pruned;
    st.hier_subsolves += istats.hier_subsolves;
    st.hier_hits += istats.hier_hits;

    if (istats.budget_exceeded()) {
      apply_checkpoint_counters(snapshot, st);
      ++st.budget_abandoned;
      in_flight = std::move(a);
      break;
    }
    if (!impl.has_value()) continue;
    ++spent.implementations;
    if (impl->flexibility <= f_cur) continue;
    while (!result.front.empty() && result.front.back().cost >= impl->cost)
      result.front.pop_back();
    f_cur = impl->flexibility;
    result.front.push_back(std::move(*impl));
    if (f_cur >= result.max_flexibility - 1e-9) break;
  }
  st.exhausted = !in_flight.has_value() &&
                 f_cur < result.max_flexibility - 1e-9;
  st.branches_pruned = stream.pruned();
  st.frontier_remaining = stream.frontier_size();
  layers.emitted += stream.emitted();

  const auto checkpoint_start = Clock::now();
  if (in_flight.has_value()) {
    st.stop_reason = tracker.reason();
    st.exact_up_to_cost = cs.allocation_cost(*in_flight);
    Result<ExploreCheckpoint> ck = build_explore_checkpoint(
        spec, options, result.front, {std::move(*in_flight)}, stream,
        checkpoint_counters(st));
    const auto checkpoint_end = Clock::now();
    spent.checkpoint_s = seconds(checkpoint_end - checkpoint_start);
    if (tracer != nullptr)
      tracer->span("explore.checkpoint", checkpoint_start, checkpoint_end);
    if (!ck.ok()) {
      result.status = ck.error();
      return result;
    }
    layers.checkpoint_frontier_states += ck.value().frontier.size();
    result.checkpoint = std::move(ck).value();
  }

  if (eval_impl.bind_cache != nullptr)
    st.cache_entries = eval_impl.bind_cache->entries();
  if (eval_impl.hier_cache != nullptr)
    st.cache_entries += eval_impl.hier_cache->entries();
  st.flat_cache_entries = cs.flat_cache_entries();
  st.flat_cache_evictions = cs.flat_cache_evictions();
  const auto t1 = Clock::now();
  st.wall_seconds = seconds(t1 - t0);
  spent.loop_s = seconds(t1 - loop_start);

  if (tracer != nullptr) {
    auto at = loop_start;
    at = tracer->aggregate("explore.enumerate", at, spent.enumerate_s);
    at = tracer->aggregate("explore.dominance", at, spent.dominance_s);
    at = tracer->aggregate("flex.activatability", at, spent.flex_s);
    tracer->aggregate("bind.solve", at, spent.bind_s);
  }
  layers.enumerate_s += spent.enumerate_s;
  layers.dominance_s += spent.dominance_s;
  layers.flex_s += spent.flex_s;
  layers.bind_s += spent.bind_s;
  layers.checkpoint_s += spent.checkpoint_s;
  layers.loop_s += spent.loop_s;
  layers.implementations += spent.implementations;
  return result;
}

SpecRun run_spec(const std::string& path, const ExploreOptions& options,
                 Tracer* tracer) {
  SpecRun run;
  const auto t0 = Clock::now();
  Result<SpecificationGraph> loaded = spec_from_file(path);
  const auto t1 = Clock::now();
  run.times.ingest_s = seconds(t1 - t0);
  if (tracer != nullptr) tracer->span("spec.ingest", t0, t1);
  if (!loaded.ok()) {
    run.error = "load: " + loaded.error().message;
    return run;
  }
  std::error_code ec;
  run.ingest_bytes = std::filesystem::file_size(path, ec);
  const SpecificationGraph& spec = run.spec.emplace(std::move(loaded).value());

  const auto c0 = Clock::now();
  const CompiledSpec& cs = spec.compiled();
  cs.set_flat_cache_budget(kFlatCacheEntries, kFlatCacheBytes);
  const auto c1 = Clock::now();
  run.times.compile_s = seconds(c1 - c0);
  if (tracer != nullptr) tracer->span("spec.compile", c0, c1);

  const LintReport lint = lint_errors(spec);
  const auto l1 = Clock::now();
  run.times.lint_s = seconds(l1 - c1);
  if (tracer != nullptr) tracer->span("lint.preflight", c1, l1);
  run.lint_errors = lint.errors();
  if (lint.has_errors()) {
    run.error = "preflight: " + std::to_string(lint.errors()) + " lint errors";
    return run;
  }

  bool infeasible = false;
  {
    const SpecAnalysis analysis(cs,
                                AnalysisOptions{options.implementation.solver});
    AllocSet all = cs.make_alloc_set();
    for (std::size_t i = 0; i < cs.unit_count(); ++i) all.set(i);
    infeasible = analysis.allocation_infeasible(all);
  }
  const auto a1 = Clock::now();
  run.times.analysis_s = seconds(a1 - l1);
  if (tracer != nullptr) tracer->span("analysis.build", l1, a1);
  if (infeasible) {
    run.error = "preflight: static relaxation proves the front empty";
    return run;
  }

  const auto e0 = Clock::now();
  run.result = tracer != nullptr ? replay_explore(spec, options, run.layers,
                                                  tracer)
                                 : explore(spec, options);
  const auto e1 = Clock::now();
  run.times.explore_s = seconds(e1 - e0);
  if (tracer != nullptr) tracer->span("explore.loop", e0, e1);
  if (!run.result.status.ok()) {
    run.error = "explore: " + run.result.status.error().message;
    return run;
  }

  const std::string report = explore_result_to_json(spec, run.result).dump(2);
  const auto r1 = Clock::now();
  run.times.emit_s = seconds(r1 - e1);
  if (tracer != nullptr) tracer->span("explore.report", e1, r1);
  run.report_bytes = report.size();
  if (tracer != nullptr) {
    JsonObject args;
    args.emplace_back("file", Json(path));
    tracer->span("spec", t0, r1, std::move(args));
  }
  return run;
}

}  // namespace sdf::e2e
