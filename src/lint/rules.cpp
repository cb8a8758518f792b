#include "lint/rules.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "analysis/analysis.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"
#include "util/strings.hpp"

namespace sdf::lint_internal {
namespace {

std::string problem_loc(const SpecificationGraph& spec, NodeId n) {
  return "problem:" + node_path(spec.problem(), n);
}

std::string mapping_loc(const SpecificationGraph& spec, const MappingEdge& m) {
  return "mapping:" + spec.problem().node(m.process).name + " -> " +
         spec.architecture().node(m.resource).name;
}

// ---- SDF009: problem leaf with no mapping edge -------------------------------

void check_unmappable_process(LintContext& ctx) {
  const HierarchicalGraph& p = ctx.spec.problem();
  for (const Node& n : p.nodes()) {
    if (n.is_interface() || !ctx.compiled.mappings_of(n.id).empty()) continue;
    ctx.report(problem_loc(ctx.spec, n.id),
               "process '" + n.name +
                   "' has no mapping edge to any architecture resource; no "
                   "binding can ever realize it",
               "add a mapping edge from '" + n.name +
                   "' to an allocatable resource");
  }
}

// ---- SDF010: mapping edge with a non-leaf endpoint ---------------------------

void check_bad_mapping_endpoint(LintContext& ctx) {
  for (const MappingEdge& m : ctx.spec.mappings()) {
    const Node& p = ctx.spec.problem().node(m.process);
    const Node& r = ctx.spec.architecture().node(m.resource);
    if (p.is_interface())
      ctx.report(mapping_loc(ctx.spec, m),
                 "mapping edge starts at interface '" + p.name +
                     "'; mapping edges link problem-graph *leaves* to "
                     "architecture leaves",
                 "map the processes inside '" + p.name +
                     "''s refinement clusters instead");
    if (r.is_interface())
      ctx.report(mapping_loc(ctx.spec, m),
                 "mapping edge ends at architecture interface '" + r.name +
                     "'; bindings target leaves (e.g. one configuration of "
                     "the device)",
                 "map '" + p.name + "' to a leaf inside one of '" + r.name +
                     "''s configurations");
  }
}

// ---- SDF011: duplicate mapping edges -----------------------------------------

void check_duplicate_mapping(LintContext& ctx) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> seen;
  for (const MappingEdge& m : ctx.spec.mappings()) {
    const auto key = std::make_pair(m.process.value(), m.resource.value());
    const auto [it, inserted] = seen.emplace(key, m.latency);
    if (inserted) continue;
    ctx.report(mapping_loc(ctx.spec, m),
               strprintf("duplicate mapping edge (latencies %s and %s); the "
                         "binding solver treats them as distinct candidates",
                         format_double(it->second).c_str(),
                         format_double(m.latency).c_str()),
               "keep a single mapping edge per (process, resource) pair");
  }
}

// ---- SDF012: negative attribute values ---------------------------------------

void check_negative_attribute(LintContext& ctx) {
  constexpr const char* kNonNegativeKeys[] = {
      attr::kCost,      attr::kCostLo,  attr::kCostHi,
      attr::kLatency,   attr::kPeriod,  attr::kCapacity,
      attr::kFootprint, attr::kTimingWeight};
  const auto scan = [&](const HierarchicalGraph& g, const char* tag) {
    const auto flag = [&](std::string location, const std::string& entity,
                          const std::string& key, double value) {
      ctx.report(std::move(location),
                 strprintf("%s has negative %s %s", entity.c_str(),
                           key.c_str(), format_double(value).c_str()),
                 "costs, cost bounds, latencies, periods, capacities, "
                 "footprints and timing weights must be non-negative");
    };
    for (const Node& n : g.nodes())
      for (const char* key : kNonNegativeKeys)
        if (const auto it = n.attrs.find(key);
            it != n.attrs.end() && it->second < 0)
          flag(std::string(tag) + ":" + node_path(g, n.id),
               "node '" + n.name + "'", key, it->second);
    for (const Cluster& c : g.clusters())
      for (const char* key : kNonNegativeKeys)
        if (const auto it = c.attrs.find(key);
            it != c.attrs.end() && it->second < 0)
          flag(std::string(tag) + ":" + cluster_path(g, c.id),
               "cluster '" + c.name + "'", key, it->second);
  };
  scan(ctx.spec.problem(), "problem");
  scan(ctx.spec.architecture(), "architecture");
  for (const MappingEdge& m : ctx.spec.mappings())
    if (m.latency < 0)
      ctx.report(mapping_loc(ctx.spec, m),
                 strprintf("mapping edge has negative latency %s",
                           format_double(m.latency).c_str()),
                 "use a non-negative worst-case execution latency");
}

// ---- SDF013: allocatable unit without a cost attribute -----------------------

void check_missing_cost(LintContext& ctx) {
  const HierarchicalGraph& a = ctx.spec.architecture();
  for (const AllocUnit& u : ctx.compiled.units()) {
    const bool has_cost =
        u.is_cluster_unit()
            ? a.cluster(u.cluster).attrs.contains(attr::kCost)
            : a.node(u.vertex).attrs.contains(attr::kCost);
    if (has_cost) continue;
    const std::string location =
        "architecture:" + (u.is_cluster_unit() ? cluster_path(a, u.cluster)
                                               : node_path(a, u.vertex));
    ctx.report(location,
               "allocatable unit '" + u.name +
                   "' has no cost attribute; it is treated as free and every "
                   "allocation will include it at no charge",
               "annotate '" + u.name + "' with an explicit \"cost\" (0 is "
                                       "fine if intentional)");
  }
}

// ---- SDF014: interface with a single refinement ------------------------------

void check_single_alternative(LintContext& ctx) {
  const HierarchicalGraph& p = ctx.spec.problem();
  for (const Node& n : p.nodes()) {
    if (!n.is_interface() || n.clusters.size() != 1) continue;
    ctx.report(problem_loc(ctx.spec, n.id),
               "interface '" + n.name +
                   "' has exactly one refinement cluster; its flexibility "
                   "contribution is structurally zero (Def. 4 collapses to "
                   "the child's value)",
               "add an alternative refinement or inline cluster '" +
                   p.cluster(n.clusters.front()).name + "' into '" + n.name +
                   "''s parent");
  }
}

// ---- SDF015: cluster dead under even the full allocation ---------------------

void check_dead_cluster(LintContext& ctx) {
  AllocSet all = ctx.compiled.make_alloc_set();
  for (std::size_t i = 0; i < ctx.compiled.unit_count(); ++i) all.set(i);
  const Activatability act(ctx.compiled, all);
  const HierarchicalGraph& p = ctx.spec.problem();
  for (const Cluster& c : p.clusters()) {
    if (act.activatable(c.id)) continue;
    if (c.is_root()) {
      ctx.report("problem:" + cluster_path(p, c.id),
                 "no complete problem activation is coverable by any "
                 "allocation; the specification has no implementable "
                 "behavior at all",
                 "check the mapping edges of the processes above");
    } else {
      ctx.report("problem:" + cluster_path(p, c.id),
                 "alternative cluster '" + c.name +
                     "' can never be activated, even with every resource "
                     "allocated; its flexibility contribution is dead",
                 "map every process in the cluster's subtree, or remove the "
                 "dead alternative");
    }
  }
}

// ---- SDF016: no mapping fits the Liu/Layland bound ---------------------------

void check_utilization_impossible(LintContext& ctx) {
  const double bound = ctx.solver.utilization_bound;
  if (bound <= 0.0) return;  // the solver's timing check is off
  const HierarchicalGraph& p = ctx.spec.problem();
  for (const Node& n : p.nodes()) {
    if (n.is_interface()) continue;
    const double period = p.attr_or(n.id, attr::kPeriod, 0.0);
    const double weight = p.attr_or(n.id, attr::kTimingWeight, 1.0);
    if (period <= 0.0 || weight <= 0.0) continue;
    const std::span<const CompiledMapping> maps =
        ctx.compiled.mappings_of(n.id);
    if (maps.empty()) continue;  // SDF009's business
    double best = weight * maps.front().latency / period;
    for (const CompiledMapping& m : maps)
      best = std::min(best, weight * m.latency / period);
    if (best <= bound + 1e-9) continue;
    ctx.report(problem_loc(ctx.spec, n.id),
               strprintf("process '%s' exceeds the Liu/Layland utilization "
                         "bound on every mapped resource (best %s > %s); the "
                         "timing filter rejects every binding",
                         n.name.c_str(), format_double(best, 3).c_str(),
                         format_double(bound).c_str()),
               "add a faster mapping, relax the period, or mark '" + n.name +
                   "' as negligible (timing_weight 0)");
  }
}

// ---- SDF017-SDF021: abstract-interpretation rules ----------------------------
//
// These five rules share one static analyzer per lint run
// (`LintContext::analysis()`), built with the run's solver options: the
// defaults for `sdf lint`, the explore run's own for its preflight.  Every
// verdict they report is a *proof* under those options, not a heuristic.

// ---- SDF017: alternative costs more than covering the whole rest -------------

void check_cost_unreachable(LintContext& ctx) {
  const SpecAnalysis& analysis = ctx.analysis();
  const HierarchicalGraph& p = ctx.spec.problem();
  const std::vector<double> rests = analysis.cover_costs_excluding();
  for (const Cluster& c : p.clusters()) {
    if (c.is_root()) continue;
    const ClusterBounds& b = analysis.bounds(c.id);
    if (std::isinf(b.lo)) continue;  // dead alternative: SDF015's business
    const double rest = rests[c.id.index()];
    if (std::isinf(rest) || b.lo <= rest) continue;
    ctx.report(
        "problem:" + cluster_path(p, c.id),
        strprintf("activating alternative '%s' costs at least %s, more than "
                  "the %s that covers every *other* behavior of the spec; no "
                  "cost-bounded exploration will ever reach it",
                  c.name.c_str(), format_double(b.lo).c_str(),
                  format_double(rest).c_str()),
        "map the cluster's processes to cheaper resources, or drop the "
        "alternative");
  }
}

// ---- SDF018: capacity packing proves a selection impossible ------------------

void check_capacity_impossible(LintContext& ctx) {
  const SpecAnalysis& analysis = ctx.analysis();
  const HierarchicalGraph& p = ctx.spec.problem();
  AllocSet all = ctx.compiled.make_alloc_set();
  for (std::size_t i = 0; i < ctx.compiled.unit_count(); ++i) all.set(i);
  const Activatability act(ctx.compiled, all);
  for (const Cluster& c : p.clusters()) {
    if (c.is_root()) continue;      // whole-spec infeasibility is SDF019
    if (!act.activatable(c.id)) continue;  // dead by reachability: SDF015
    if (!analysis.cluster_core_infeasible(c.id)) continue;
    ctx.report(
        "problem:" + cluster_path(p, c.id),
        "no binding can realize alternative '" + c.name +
            "' even with every resource allocated: the capacity/utilization "
            "relaxation over its mandatory processes is infeasible",
        "raise the capacities of the mapped resources, add mappings to "
        "spread the footprints, or relax the timing of the cluster's "
        "processes");
  }
}

// ---- SDF019: the whole Pareto front is provably empty ------------------------

void check_bound_empty_front(LintContext& ctx) {
  const SpecAnalysis& analysis = ctx.analysis();
  AllocSet all = ctx.compiled.make_alloc_set();
  for (std::size_t i = 0; i < ctx.compiled.unit_count(); ++i) all.set(i);
  // A root dead by plain reachability is SDF009/SDF015's diagnosis; this
  // rule reports only what the *relaxation* adds on top of it.
  if (!Activatability(ctx.compiled, all).root_activatable()) return;
  if (!analysis.allocation_infeasible(all)) return;
  const HierarchicalGraph& p = ctx.spec.problem();
  ctx.report("problem:" + cluster_path(p, p.root()),
             "the relaxation over the always-active processes is infeasible "
             "under the full allocation: every allocation yields an empty "
             "front, and `sdf explore` can only confirm that expensively",
             "check the capacities, periods and communication paths of the "
             "top-level processes before exploring");
}

// ---- SDF020: alternative dominated under every selection ---------------------

// An alternative with a *positive* flexibility value is never dominated:
// per Def. 4 each implemented alternative adds its own term, so even an
// expensive sibling can appear in a Pareto-optimal implementation as an
// additional behavior (that tradeoff is the paper's entire subject).
// Domination is only provable when the weighted metric (footnote 2) values
// the alternative's subtree at zero: then a sibling that delivers positive
// flexibility for provably less cost dominates every selection through it.
void check_dominated_alternative(LintContext& ctx) {
  const SpecAnalysis& analysis = ctx.analysis();
  const HierarchicalGraph& p = ctx.spec.problem();
  const ActivationPredicate always = [](ClusterId) { return true; };
  for (const Node& n : p.nodes()) {
    if (!n.is_interface() || n.clusters.size() < 2) continue;
    for (ClusterId a : n.clusters) {
      const ClusterBounds& ba = analysis.bounds(a);
      if (std::isinf(ba.lo)) continue;  // dead: SDF015's business
      if (weighted_flexibility(p, a, always) > 0.0) continue;
      for (ClusterId sibling : n.clusters) {
        if (sibling == a) continue;
        const ClusterBounds& bs = analysis.bounds(sibling);
        if (std::isinf(bs.hi_cover) || bs.hi_cover >= ba.lo) continue;
        if (weighted_flexibility(p, sibling, always) <= 0.0) continue;
        ctx.report(
            "problem:" + cluster_path(p, a),
            strprintf(
                "alternative '%s' is dominated under every selection: its "
                "weighted flexibility is zero, while sibling '%s' delivers "
                "positive flexibility and its entire subtree is coverable "
                "for %s — below '%s''s minimum activation cost %s",
                p.cluster(a).name.c_str(), p.cluster(sibling).name.c_str(),
                format_double(bs.hi_cover).c_str(), p.cluster(a).name.c_str(),
                format_double(ba.lo).c_str()),
            "give '" + p.cluster(a).name +
                "' a positive flex_weight, remap it onto cheaper resources, "
                "or remove it");
        break;  // one dominator per alternative is enough
      }
    }
  }
}

// ---- SDF021: dependence edge with no communicating candidate pair ------------

void check_comm_unsatisfiable(LintContext& ctx) {
  const SpecAnalysis& analysis = ctx.analysis();
  const HierarchicalGraph& p = ctx.spec.problem();
  for (const Cluster& c : p.clusters()) {
    for (EdgeId eid : c.edges) {
      const Edge& e = p.edge(eid);
      if (p.node(e.from).is_interface() || p.node(e.to).is_interface())
        continue;
      if (analysis.edge_comm_satisfiable(e.from, e.to)) continue;
      ctx.report(
          "problem:" + node_path(p, e.from) + " -> " + node_path(p, e.to),
          "no candidate resource pair for this dependence edge can ever "
          "communicate (no shared device, direct link, or bus), under any "
          "allocation; every activation containing both endpoints is "
          "unbindable",
          "add a bus connecting the mapped resources, or map both processes "
          "onto communicating devices");
    }
  }
}

// ---- SDF022: a node or cluster name used twice in one graph ------------------

void check_duplicate_name(LintContext& ctx) {
  const auto scan = [&](const HierarchicalGraph& g, const char* side) {
    const std::string consequence =
        "' in graph '" + g.name() +
        "'; the file format refers to nodes and clusters by name, so this "
        "specification cannot be saved, and an explore run cannot "
        "checkpoint it";
    const DuplicateNames dups = find_duplicate_names(g);
    for (NodeId n : dups.nodes)
      ctx.report(std::string(side) + ":" + node_path(g, n),
                 "duplicate node name '" + g.node(n).name + consequence,
                 "give every node of the graph its own name");
    for (ClusterId c : dups.clusters)
      ctx.report(std::string(side) + ":" + cluster_path(g, c),
                 "duplicate cluster name '" + g.cluster(c).name + consequence,
                 "give every cluster of the graph its own name");
  };
  scan(ctx.spec.problem(), "problem");
  scan(ctx.spec.architecture(), "architecture");
}

}  // namespace

void LintContext::report(std::string location, std::string message,
                         std::string hint) {
  sink.push_back(Diagnostic{rule.id, rule.name, rule.severity,
                            std::move(location), std::move(message),
                            std::move(hint)});
}

const SpecAnalysis& LintContext::analysis() {
  if (!analyzer.has_value())
    analyzer.emplace(compiled, AnalysisOptions{solver});
  return *analyzer;
}

const std::vector<RuleDef>& rule_defs() {
  static const std::vector<RuleDef> defs = {
      {kRuleVertexWithClusters, "vertex-with-clusters", Severity::kError,
       "a non-hierarchical vertex carries refinement clusters", nullptr},
      {kRuleVertexWithPorts, "vertex-with-ports", Severity::kError,
       "a non-hierarchical vertex declares ports", nullptr},
      {kRuleEmptyInterface, "empty-interface", Severity::kError,
       "an interface has no refinement cluster (empty Gamma); it can never "
       "be activated",
       nullptr},
      {kRuleDanglingPortMapping, "dangling-port-mapping", Severity::kError,
       "a port mapping names a cluster that does not refine the port's "
       "interface, or a target outside that cluster",
       nullptr},
      {kRuleIncompletePortMapping, "incomplete-port-mapping",
       Severity::kWarning,
       "a (port, refinement) pair has no port mapping; boundary edges fall "
       "back to default resolution",
       nullptr},
      {kRuleCrossHierarchyEdge, "cross-hierarchy-edge", Severity::kError,
       "a dependence edge connects nodes of different clusters", nullptr},
      {kRulePortOwnerMismatch, "port-owner-mismatch", Severity::kError,
       "an edge is attached to a port owned by a different node", nullptr},
      {kRuleClusterCycle, "cluster-cycle", Severity::kError,
       "the dependence edges of one cluster form a cycle", nullptr},
      {kRuleUnmappableProcess, "unmappable-process", Severity::kError,
       "a problem-graph leaf has no mapping edge; binding can never be "
       "feasible",
       &check_unmappable_process},
      {kRuleBadMappingEndpoint, "bad-mapping-endpoint", Severity::kError,
       "a mapping edge starts or ends at a non-leaf (interface) vertex",
       &check_bad_mapping_endpoint},
      {kRuleDuplicateMapping, "duplicate-mapping", Severity::kWarning,
       "the same (process, resource) pair is mapped more than once",
       &check_duplicate_mapping},
      {kRuleNegativeAttribute, "negative-attribute", Severity::kError,
       "a cost, latency, period, capacity, footprint or timing weight is "
       "negative",
       &check_negative_attribute},
      {kRuleMissingCost, "missing-cost", Severity::kWarning,
       "an allocatable unit has no cost attribute and is priced as free",
       &check_missing_cost},
      {kRuleSingleAlternative, "single-alternative-interface", Severity::kNote,
       "an interface has exactly one refinement; Def. 4 collapses and it "
       "adds no flexibility",
       &check_single_alternative},
      {kRuleDeadCluster, "dead-cluster", Severity::kWarning,
       "a cluster is not activatable even under the full allocation; the "
       "subtree is flexibility-dead",
       &check_dead_cluster},
      {kRuleUtilizationImpossible, "utilization-impossible", Severity::kError,
       "a timing-relevant process exceeds the Liu/Layland bound on every "
       "mapped resource",
       &check_utilization_impossible},
      {kRuleCostUnreachable, "cost-unreachable-alternative", Severity::kNote,
       "an alternative's minimum activation cost exceeds the cost of "
       "covering every other behavior of the spec",
       &check_cost_unreachable},
      {kRuleCapacityImpossible, "capacity-impossible-selection",
       Severity::kError,
       "the capacity/utilization relaxation proves an alternative "
       "unbindable under even the full allocation",
       &check_capacity_impossible},
      {kRuleBoundEmptyFront, "bound-empty-front", Severity::kError,
       "the relaxation proves the whole Pareto front empty before any "
       "solver search",
       &check_bound_empty_front},
      {kRuleDominatedAlternative, "dominated-alternative", Severity::kNote,
       "a zero-weight alternative costs provably more than a sibling that "
       "delivers positive flexibility",
       &check_dominated_alternative},
      {kRuleCommUnsatisfiable, "comm-unsatisfiable-mapping", Severity::kError,
       "a dependence edge admits no candidate resource pair that could ever "
       "communicate",
       &check_comm_unsatisfiable},
      {kRuleDuplicateName, "duplicate-name", Severity::kError,
       "two nodes or two clusters of one graph share a name; the file "
       "format, and so the checkpoint digest, cannot tell them apart",
       &check_duplicate_name},
  };
  return defs;
}

const RuleDef* find_rule_def(std::string_view id_or_name) {
  for (const RuleDef& d : rule_defs())
    if (id_or_name == d.id || id_or_name == d.name) return &d;
  return nullptr;
}

}  // namespace sdf::lint_internal
