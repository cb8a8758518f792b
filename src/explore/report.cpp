#include "explore/report.hpp"

namespace sdf {
namespace {

Json implementation_to_json(const SpecificationGraph& spec,
                            const Implementation& impl) {
  JsonObject obj;
  obj.emplace_back("cost", Json(impl.cost));
  obj.emplace_back("flexibility", Json(impl.flexibility));
  const std::vector<AllocUnit>& units = spec.alloc_units();
  JsonArray resources;
  impl.units.for_each(
      [&](std::size_t i) { resources.push_back(Json(units[i].name)); });
  obj.emplace_back("resources", Json(std::move(resources)));
  JsonArray clusters;
  for (ClusterId c : impl.leaf_clusters(spec.problem()))
    clusters.push_back(Json(spec.problem().cluster(c).name));
  obj.emplace_back("clusters", Json(std::move(clusters)));
  obj.emplace_back("feasible_activations", Json(impl.ecas.size()));
  if (!impl.equivalents.empty()) {
    JsonArray equivalents;
    for (const Implementation& eq : impl.equivalents)
      equivalents.push_back(implementation_to_json(spec, eq));
    obj.emplace_back("equivalents", Json(std::move(equivalents)));
  }
  return Json(std::move(obj));
}

}  // namespace

Json explore_stats_to_json(const ExploreStats& s) {
  const auto count = [](std::uint64_t n) {
    return Json(static_cast<double>(n));
  };
  JsonObject stats;
  stats.emplace_back("universe", Json(s.universe));
  stats.emplace_back("raw_design_points", Json(s.raw_design_points));
  stats.emplace_back("candidates_generated", count(s.candidates_generated));
  stats.emplace_back("dominated_skipped", count(s.dominated_skipped));
  stats.emplace_back("possible_allocations", count(s.possible_allocations));
  stats.emplace_back("flexibility_estimations",
                     count(s.flexibility_estimations));
  stats.emplace_back("bound_skipped", count(s.bound_skipped));
  stats.emplace_back("branches_pruned", count(s.branches_pruned));
  stats.emplace_back("implementation_attempts",
                     count(s.implementation_attempts));
  stats.emplace_back("solver_calls", count(s.solver_calls));
  stats.emplace_back("solver_nodes", count(s.solver_nodes));
  stats.emplace_back("cache_hits_feasible", count(s.cache_hits_feasible));
  stats.emplace_back("cache_hits_infeasible", count(s.cache_hits_infeasible));
  stats.emplace_back("cache_revalidations", count(s.cache_revalidations));
  stats.emplace_back("cache_entries", count(s.cache_entries));
  stats.emplace_back("hier_subsolves", count(s.hier_subsolves));
  stats.emplace_back("hier_hits", count(s.hier_hits));
  stats.emplace_back("flat_cache_entries", count(s.flat_cache_entries));
  stats.emplace_back("flat_cache_evictions", count(s.flat_cache_evictions));
  stats.emplace_back("wall_seconds", Json(s.wall_seconds));
  stats.emplace_back("index_build_seconds", Json(s.index_build_seconds));
  // Anytime accounting: always emitted so downstream tooling can rely on
  // the keys; `exact_up_to_cost` only when the certificate is meaningful.
  stats.emplace_back("stop_reason", Json(stop_reason_name(s.stop_reason)));
  stats.emplace_back("budget_abandoned", count(s.budget_abandoned));
  stats.emplace_back("frontier_remaining", count(s.frontier_remaining));
  stats.emplace_back("resumed", Json(s.resumed));
  stats.emplace_back("exhausted", Json(s.exhausted));
  if (s.stop_reason != StopReason::kCompleted)
    stats.emplace_back("exact_up_to_cost", Json(s.exact_up_to_cost));
  // Band shape and, when a pool ran, the per-phase time breakdown.
  stats.emplace_back("threads", Json(s.threads));
  stats.emplace_back("bands", count(s.bands));
  stats.emplace_back("peak_band_size", Json(s.peak_band_size));
  if (s.threads > 1) {
    stats.emplace_back("enumerate_seconds", Json(s.enumerate_seconds));
    stats.emplace_back("evaluate_seconds", Json(s.evaluate_seconds));
    stats.emplace_back("merge_seconds", Json(s.merge_seconds));
    stats.emplace_back("filter_cpu_seconds", Json(s.filter_cpu_seconds));
    stats.emplace_back("implement_cpu_seconds",
                       Json(s.implement_cpu_seconds));
  }
  return Json(std::move(stats));
}

Json explore_result_to_json(const SpecificationGraph& spec,
                            const ExploreResult& result) {
  JsonObject doc;
  doc.reserve(4);  // no reallocation: GCC 12 warns falsely on moving a Json
  doc.emplace_back("specification", Json(spec.name()));
  doc.emplace_back("max_flexibility", Json(result.max_flexibility));

  JsonArray front;
  for (const Implementation& impl : result.front)
    front.push_back(implementation_to_json(spec, impl));
  doc.emplace_back("front", Json(std::move(front)));
  doc.emplace_back("stats", explore_stats_to_json(result.stats));
  return Json(std::move(doc));
}

}  // namespace sdf
