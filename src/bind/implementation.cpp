#include "bind/implementation.hpp"

#include <algorithm>

#include "analysis/analysis.hpp"
#include "bind/bind_cache.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"

namespace sdf {

std::vector<ClusterId> Implementation::leaf_clusters(
    const HierarchicalGraph& problem) const {
  std::vector<ClusterId> out;
  implemented_clusters.for_each([&](std::size_t i) {
    const Cluster& c = problem.cluster(ClusterId{i});
    if (c.is_root()) return;
    for (NodeId nid : c.nodes)
      if (problem.node(nid).is_interface()) return;
    out.push_back(c.id);
  });
  return out;
}

std::vector<Eca> Implementation::minimal_cover(
    const HierarchicalGraph& problem) const {
  std::vector<Eca> feasible;
  feasible.reserve(ecas.size());
  for (const FeasibleEca& fe : ecas) feasible.push_back(fe.eca);
  return cover_ecas(problem, feasible);
}

std::optional<Implementation> build_implementation(
    const CompiledSpec& cs, const AllocSet& alloc,
    const ImplementationOptions& options, ImplementationStats* stats) {
  ImplementationStats local;
  ImplementationStats& st = stats != nullptr ? *stats : local;

  const Activatability act(cs, alloc);
  if (!act.root_activatable()) return std::nullopt;

  // The activatable set's ECAs, flattened and keyed once per spec.
  const std::shared_ptr<const PreparedEcas> ecas =
      cs.prepared_ecas(act.clusters(), options.eca_limit);
  if (ecas->empty()) return std::nullopt;

  Implementation impl;
  impl.units = alloc;
  impl.cost = cs.allocation_cost(alloc);
  impl.implemented_clusters = cs.problem().make_cluster_set();

  const SpecAnalysis* analysis =
      options.use_analysis ? options.analysis : nullptr;
  // The hierarchical path engages only when the spec actually decomposes;
  // otherwise the flat path runs unchanged (bit-identical stats).
  HierCache* hier = options.use_hier && cs.hier_useful()
                        ? options.hier_cache
                        : nullptr;

  PreparedEca spare;
  for (const PreparedEca& listed : *ecas) {
    // An entry past the memo's byte budget holds its ECA alone.
    const PreparedEca& prepared =
        listed.prepared() ? listed : (spare = cs.prepare(listed.eca));
    SolverStats ss;
    // `solver_calls` counts *queries*, not searches — it stays invariant
    // under the cache and under this prefilter, so checkpointed counters
    // and pinned test expectations are unaffected.
    ++st.solver_calls;
    if (analysis != nullptr && analysis->eca_infeasible(alloc, prepared)) {
      // Sound proof: the solver would return kInfeasible.  Same verdict,
      // zero nodes searched.
      ++st.analysis_pruned;
      continue;
    }
    std::optional<Binding> binding =
        hier != nullptr
            ? hier->solve(cs, alloc, prepared, options.solver, &ss)
        : options.bind_cache != nullptr
            ? options.bind_cache->solve(cs, alloc, prepared, options.solver,
                                        &ss)
        : prepared.flat != nullptr
            ? solve_binding_flat(cs, alloc, *prepared.flat, options.solver,
                                 &ss)
            : std::nullopt;  // a selection that does not flatten
    st.solver_nodes += ss.nodes;
    st.cache_hits_feasible += ss.cache_hits_feasible;
    st.cache_hits_infeasible += ss.cache_hits_infeasible;
    st.cache_revalidations += ss.cache_revalidations;
    st.hier_subsolves += ss.hier_subsolves;
    st.hier_hits += ss.hier_hits;
    if (ss.outcome == SolveOutcome::kBudgetExceeded ||
        ss.outcome == SolveOutcome::kCancelled) {
      // The budget is gone: remaining ECAs would abort the same way, and a
      // partial ECA set would understate the implemented flexibility.  Bail
      // out; the caller sees `budget_exceeded()` and treats the whole
      // allocation as abandoned, never as infeasible.
      ++st.budget_aborted_calls;
      return std::nullopt;
    }
    if (!binding.has_value()) continue;
    for (ClusterId c : prepared.eca.clusters)
      impl.implemented_clusters.set(c.index());
    impl.ecas.push_back(FeasibleEca{prepared.eca, std::move(*binding)});
  }

  if (impl.ecas.empty()) return std::nullopt;
  impl.flexibility = flexibility(cs.problem(), impl.implemented_clusters);
  return impl;
}

std::optional<Implementation> build_implementation(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const ImplementationOptions& options, ImplementationStats* stats) {
  return build_implementation(spec.compiled(), alloc, options, stats);
}

}  // namespace sdf
