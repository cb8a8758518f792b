#include "explore/report.hpp"

namespace sdf {
namespace {

Json implementation_to_json(const SpecificationGraph& spec,
                            const Implementation& impl) {
  JsonObject obj;
  obj.emplace_back("cost", Json(impl.cost));
  obj.emplace_back("flexibility", Json(impl.flexibility));
  JsonArray resources;
  impl.units.for_each([&](std::size_t i) {
    resources.push_back(Json(spec.alloc_units()[i].name));
  });
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

Json explore_result_to_json(const SpecificationGraph& spec,
                            const ExploreResult& result) {
  JsonObject doc;
  doc.emplace_back("specification", Json(spec.name()));
  doc.emplace_back("max_flexibility", Json(result.max_flexibility));

  JsonArray front;
  for (const Implementation& impl : result.front)
    front.push_back(implementation_to_json(spec, impl));
  doc.emplace_back("front", Json(std::move(front)));

  JsonObject stats;
  stats.emplace_back("universe", Json(result.stats.universe));
  stats.emplace_back("raw_design_points", Json(result.stats.raw_design_points));
  stats.emplace_back("candidates_generated",
                     Json(static_cast<double>(result.stats.candidates_generated)));
  stats.emplace_back("dominated_skipped",
                     Json(static_cast<double>(result.stats.dominated_skipped)));
  stats.emplace_back(
      "possible_allocations",
      Json(static_cast<double>(result.stats.possible_allocations)));
  stats.emplace_back(
      "flexibility_estimations",
      Json(static_cast<double>(result.stats.flexibility_estimations)));
  stats.emplace_back("bound_skipped",
                     Json(static_cast<double>(result.stats.bound_skipped)));
  stats.emplace_back("branches_pruned",
                     Json(static_cast<double>(result.stats.branches_pruned)));
  stats.emplace_back(
      "implementation_attempts",
      Json(static_cast<double>(result.stats.implementation_attempts)));
  stats.emplace_back("solver_calls",
                     Json(static_cast<double>(result.stats.solver_calls)));
  stats.emplace_back("solver_nodes",
                     Json(static_cast<double>(result.stats.solver_nodes)));
  stats.emplace_back(
      "cache_hits_feasible",
      Json(static_cast<double>(result.stats.cache_hits_feasible)));
  stats.emplace_back(
      "cache_hits_infeasible",
      Json(static_cast<double>(result.stats.cache_hits_infeasible)));
  stats.emplace_back(
      "cache_revalidations",
      Json(static_cast<double>(result.stats.cache_revalidations)));
  stats.emplace_back("cache_entries",
                     Json(static_cast<double>(result.stats.cache_entries)));
  stats.emplace_back("analysis_pruned",
                     Json(static_cast<double>(result.stats.analysis_pruned)));
  stats.emplace_back("hier_subsolves",
                     Json(static_cast<double>(result.stats.hier_subsolves)));
  stats.emplace_back("hier_hits",
                     Json(static_cast<double>(result.stats.hier_hits)));
  stats.emplace_back(
      "flat_cache_entries",
      Json(static_cast<double>(result.stats.flat_cache_entries)));
  stats.emplace_back(
      "flat_cache_evictions",
      Json(static_cast<double>(result.stats.flat_cache_evictions)));
  stats.emplace_back("wall_seconds", Json(result.stats.wall_seconds));
  stats.emplace_back("index_build_seconds",
                     Json(result.stats.index_build_seconds));
  // Anytime accounting: always emitted so downstream tooling can rely on
  // the keys; `exact_up_to_cost` only when the certificate is meaningful.
  stats.emplace_back("stop_reason",
                     Json(stop_reason_name(result.stats.stop_reason)));
  stats.emplace_back(
      "budget_abandoned",
      Json(static_cast<double>(result.stats.budget_abandoned)));
  stats.emplace_back(
      "frontier_remaining",
      Json(static_cast<double>(result.stats.frontier_remaining)));
  stats.emplace_back("resumed", Json(result.stats.resumed));
  stats.emplace_back("exhausted", Json(result.stats.exhausted));
  if (result.stats.stop_reason != StopReason::kCompleted)
    stats.emplace_back("exact_up_to_cost",
                       Json(result.stats.exact_up_to_cost));
  // Band shape and, when a pool ran, the per-phase time breakdown.
  stats.emplace_back("threads", Json(result.stats.threads));
  stats.emplace_back("bands", Json(static_cast<double>(result.stats.bands)));
  stats.emplace_back("peak_band_size", Json(result.stats.peak_band_size));
  if (result.stats.threads > 1) {
    stats.emplace_back("enumerate_seconds",
                       Json(result.stats.enumerate_seconds));
    stats.emplace_back("evaluate_seconds", Json(result.stats.evaluate_seconds));
    stats.emplace_back("merge_seconds", Json(result.stats.merge_seconds));
    stats.emplace_back("filter_cpu_seconds",
                       Json(result.stats.filter_cpu_seconds));
    stats.emplace_back("implement_cpu_seconds",
                       Json(result.stats.implement_cpu_seconds));
  }
  doc.emplace_back("stats", Json(std::move(stats)));
  return Json(std::move(doc));
}

}  // namespace sdf
