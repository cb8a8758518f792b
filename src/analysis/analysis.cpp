#include "analysis/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "graph/validate.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace sdf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Same slack the solver applies to its per-unit accumulations.
constexpr double kEps = 1e-9;

/// Clamped unit cost for lower bounds: negative costs (an SDF012 defect)
/// would make "allocation cost >= any member's cost" unsound, so they
/// contribute zero instead.
double clamped_cost(const AllocUnit& u) { return std::max(0.0, u.cost); }

std::string bound_str(double v) {
  return std::isinf(v) ? "inf" : format_double(v);
}

Json bound_json(double v) {
  return std::isinf(v) ? Json() : Json(v);
}

}  // namespace

SpecAnalysis::SpecAnalysis(const CompiledSpec& cs,
                           const AnalysisOptions& options)
    : cs_(cs), options_(options) {
  full_alloc_ = cs_.make_alloc_set();
  for (std::size_t i = 0; i < cs_.unit_count(); ++i) full_alloc_.set(i);
  scratch_.live = cs_.make_alloc_set();
  scratch_.forced_fp.assign(cs_.unit_count(), 0.0);
  scratch_.forced_util.assign(cs_.unit_count(), 0.0);
  bounds_.resize(cs_.problem().cluster_count());
  compute_bounds(cs_.problem().root());
  compute_mandatory_core();
}

void SpecAnalysis::compute_bounds(ClusterId cid) {
  const HierarchicalGraph& p = cs_.problem();
  const Cluster& c = p.cluster(cid);

  // Post-order: every nested alternative is bounded before its parent.
  for (NodeId nid : c.nodes) {
    const Node& n = p.node(nid);
    if (!n.is_interface()) continue;
    for (ClusterId child : n.clusters) compute_bounds(child);
  }

  ClusterBounds b;
  b.witness = cs_.make_alloc_set();
  b.witness_cover = cs_.make_alloc_set();
  bool unmappable_vertex = false;  // some own vertex has no candidate at all
  bool reach_ok = true;            // `witness` activates the cluster
  bool cover_ok = true;            // `witness_cover` covers every alternative

  // Own vertices: cheapest candidate into the witnesses, and the
  // disjoint-cover-group lower bound.  Two vertices whose reachable-unit
  // sets overlap might share one unit (bound: max of their minima); groups
  // with disjoint unions need distinct units (bounds add up).
  struct Group {
    DynBitset units;
    double bound = 0.0;
  };
  std::vector<Group> groups;
  for (NodeId nid : c.nodes) {
    const Node& n = p.node(nid);
    if (n.is_interface()) continue;
    const DynBitset& reach = cs_.reachable_units(nid);
    if (reach.none()) {
      unmappable_vertex = true;
      reach_ok = cover_ok = false;
      continue;
    }
    double best_cost = kInf;
    std::size_t best = 0;
    for (AllocUnitId u : cs_.reachable_unit_list(nid)) {
      const double cost = clamped_cost(cs_.unit(u));
      if (cost < best_cost) {
        best_cost = cost;
        best = u.index();
      }
    }
    b.witness.set(best);
    b.witness_cover.set(best);

    Group merged{reach, best_cost};
    std::vector<Group> rest;
    rest.reserve(groups.size());
    for (Group& g : groups) {
      if (g.units.intersects(merged.units)) {
        merged.units |= g.units;
        merged.bound = std::max(merged.bound, g.bound);
      } else {
        rest.push_back(std::move(g));
      }
    }
    rest.push_back(std::move(merged));
    groups = std::move(rest);
  }
  double lo = 0.0;
  for (const Group& g : groups) lo += g.bound;

  // Interfaces: min over alternatives for activation, all alternatives for
  // coverage.
  for (NodeId nid : c.nodes) {
    const Node& n = p.node(nid);
    if (!n.is_interface()) continue;
    double min_lo = kInf;
    double best_hi = kInf;
    ClusterId best_child;
    for (ClusterId child : n.clusters) {
      const ClusterBounds& cb = bounds_[child.index()];
      min_lo = std::min(min_lo, cb.lo);
      if (cb.hi < best_hi) {
        best_hi = cb.hi;
        best_child = child;
      }
      if (cb.hi_cover == kInf) {
        cover_ok = false;
      } else {
        b.witness_cover |= cb.witness_cover;
      }
    }
    lo = std::max(lo, min_lo);  // stays kInf when every alternative is dead
    if (best_child.valid()) {
      b.witness |= bounds_[best_child.index()].witness;
    } else {
      reach_ok = false;  // no refinement is reachable (or Gamma is empty)
      cover_ok = false;
    }
  }

  b.lo = unmappable_vertex ? kInf : lo;
  b.hi = reach_ok ? cs_.allocation_cost(b.witness) : kInf;
  b.hi_cover = cover_ok ? cs_.allocation_cost(b.witness_cover) : kInf;
  bounds_[cid.index()] = std::move(b);
}

std::vector<double> SpecAnalysis::cover_costs_excluding() const {
  const HierarchicalGraph& p = cs_.problem();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  // Preorder positions of the nodes the root's walk reaches: a cluster's
  // subtree is the interval [begin, end), [0, 0) for one it never reaches.
  // Each vertex chooses its cheapest unit, and a node that makes every
  // cover holding it infinite (an unmappable vertex, an interface without
  // refinements) chooses the pseudo-unit `none`.  A unit is in a cluster's
  // cover iff the first or the last position choosing it lies outside.
  const std::size_t none = cs_.unit_count();
  std::vector<std::size_t> begin(p.cluster_count(), 0);
  std::vector<std::size_t> end(p.cluster_count(), 0);
  std::vector<std::size_t> first(none + 1, kNone);
  std::vector<std::size_t> last(none + 1, 0);
  std::size_t pos = 0;
  const auto place = [&](std::size_t unit) {
    if (unit != kNone) {
      if (first[unit] == kNone) first[unit] = pos;
      last[unit] = pos;
    }
    ++pos;
  };
  const auto visit = [&](const auto& self, ClusterId cid) -> void {
    begin[cid.index()] = pos;
    for (NodeId nid : p.cluster(cid).nodes) {
      const Node& n = p.node(nid);
      if (n.is_interface()) {
        place(n.clusters.empty() ? none : kNone);
        for (ClusterId child : n.clusters) self(self, child);
        continue;
      }
      double best_cost = kInf;
      std::size_t best = none;
      for (AllocUnitId u : cs_.reachable_unit_list(nid)) {
        const double cost = clamped_cost(cs_.unit(u));
        if (cost < best_cost) {
          best_cost = cost;
          best = u.index();
        }
      }
      place(best);
    }
    end[cid.index()] = pos;
  };
  visit(visit, p.root());

  std::vector<double> out(p.cluster_count(), kInf);
  for (const Cluster& c : p.clusters()) {
    const std::size_t lo = begin[c.id.index()];
    const std::size_t hi = end[c.id.index()];
    const auto outside = [&](std::size_t u) {
      return first[u] != kNone && (first[u] < lo || last[u] >= hi);
    };
    if (outside(none)) continue;
    // A reached cluster's parent interface may lose its only refinement.
    if (!c.is_root() && hi != 0 && p.node(c.parent).clusters.size() == 1)
      continue;
    AllocSet cover = cs_.make_alloc_set();
    for (std::size_t u = 0; u < none; ++u)
      if (outside(u)) cover.set(u);
    out[c.id.index()] = cs_.allocation_cost(cover);
  }
  return out;
}

bool SpecAnalysis::comm_possible(AllocUnitId a, AllocUnitId b) const {
  switch (options_.solver.comm_model) {
    case CommModel::kDirectOnly:
      return cs_.tops_direct(a, b);
    case CommModel::kOneHopBus:
      // Monotone in the allocation, so the full allocation is the closure.
      return cs_.comm_reachable(full_alloc_, a, b);
    case CommModel::kAnyPath:
      // Multi-hop routing is not analyzed; claim nothing.
      return true;
  }
  return true;
}

bool SpecAnalysis::edge_comm_satisfiable(NodeId p, NodeId q) const {
  const std::span<const CompiledMapping> pm = cs_.mappings_of(p);
  const std::span<const CompiledMapping> qm = cs_.mappings_of(q);
  // An unmappable endpoint is SDF009's business, not a comm claim.
  if (pm.empty() || qm.empty()) return true;
  for (const CompiledMapping& a : pm) {
    if (!a.unit.valid()) continue;
    for (const CompiledMapping& b : qm) {
      if (!b.unit.valid()) continue;
      if (comm_possible(a.unit, b.unit)) return true;
    }
  }
  return false;
}

bool SpecAnalysis::relaxation_infeasible(
    const AllocSet& alloc, const std::vector<NodeId>& procs,
    const std::vector<double>& demand, const std::vector<double>& footprint,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) const {
  const SolverOptions& so = options_.solver;
  const bool check_util = so.utilization_bound > 0.0;
  const std::size_t n = procs.size();

  // Mirrors the solver's domain construction: a candidate is live iff its
  // unit is allocated and the mapping survives the individually-bad filter
  // (a single assignment already over the utilization bound or the unit
  // capacity can never be part of a feasible binding).
  const auto live = [&](const CompiledMapping& m, std::size_t i) {
    if (!m.unit.valid() || !alloc.test(m.unit.index())) return false;
    if (check_util && demand[i] * m.latency > so.utilization_bound + kEps)
      return false;
    const double cap = cs_.unit_capacity(m.unit);
    return !(cap > 0.0 && footprint[i] > cap + kEps);
  };

  // The last call's sums stand only at the units it forced.
  scratch_.live.clear();
  for (const std::size_t u : scratch_.forced) {
    scratch_.forced_fp[u] = 0.0;
    scratch_.forced_util[u] = 0.0;
  }
  scratch_.forced.clear();
  scratch_.forced_configs.clear();
  DynBitset& live_union = scratch_.live;
  std::vector<double>& forced_fp = scratch_.forced_fp;
  std::vector<double>& forced_util = scratch_.forced_util;
  double total_fp = 0.0;
  double total_util = 0.0;
  // One forced configuration cluster per device top; a second distinct one
  // proves an exclusive-configuration conflict.
  std::vector<std::pair<NodeId, ClusterId>>& forced_configs =
      scratch_.forced_configs;

  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const CompiledMapping> maps = cs_.mappings_of(procs[i]);
    AllocUnitId single;
    bool multiple = false;
    double min_util = kInf;
    for (const CompiledMapping& m : maps) {
      if (!live(m, i)) continue;
      live_union.set(m.unit.index());
      if (!single.valid()) {
        single = m.unit;
      } else if (single != m.unit) {
        multiple = true;
      }
      if (demand[i] > 0.0) min_util = std::min(min_util, demand[i] * m.latency);
    }
    if (!single.valid()) return true;  // empty domain: no rule-1 assignment
    if (demand[i] <= 0.0) min_util = 0.0;
    total_fp += footprint[i];
    total_util += min_util;

    if (multiple) continue;
    // Forced assignment: every feasible binding puts `procs[i]` on `single`.
    const std::size_t u = single.index();
    scratch_.forced.push_back(u);
    forced_fp[u] += footprint[i];
    forced_util[u] += min_util;
    const double cap = cs_.unit_capacity(single);
    if (cap > 0.0 && forced_fp[u] > cap + kEps) return true;
    if (check_util && forced_util[u] > so.utilization_bound + kEps) return true;
    if (cs_.unit(single).is_cluster_unit()) {
      const AllocUnit& unit = cs_.unit(single);
      bool conflict = false;
      bool seen = false;
      for (const auto& [top, cluster] : forced_configs) {
        if (top != unit.top) continue;
        seen = true;
        conflict |= cluster != unit.cluster;
      }
      if (conflict) return true;  // two configs of one device both forced
      if (!seen) forced_configs.emplace_back(unit.top, unit.cluster);
    }
  }

  // Aggregate packing: every feasible binding places all footprints inside
  // the union of live units, whose per-unit loads respect cap + eps.
  double total_cap = 0.0;
  bool all_capped = true;
  live_union.for_each([&](std::size_t u) {
    const double cap = cs_.unit_capacity(AllocUnitId{u});
    if (cap <= 0.0) all_capped = false;  // an unlimited unit absorbs all
    total_cap += cap;
  });
  const double slack = static_cast<double>(live_union.count()) * kEps + kEps;
  if (all_capped && total_fp > total_cap + slack) return true;
  // Aggregate utilization: per-unit load <= bound + eps over at most
  // |live_union| units.
  if (check_util) {
    const double ceiling = (so.utilization_bound + kEps) *
                               static_cast<double>(live_union.count()) +
                           kEps;
    if (total_util > ceiling) return true;
  }

  // Rule-3 closure: a dependence edge with no communicating live candidate
  // pair can never be bound.  kAnyPath is not analyzed (comm_possible and
  // the per-allocation variant below stay conservative).
  if (so.comm_model != CommModel::kAnyPath) {
    const auto can_comm = [&](AllocUnitId a, AllocUnitId b) {
      return so.comm_model == CommModel::kDirectOnly
                 ? cs_.tops_direct(a, b)
                 : cs_.comm_reachable(alloc, a, b);
    };
    for (const auto& [i, j] : edges) {
      bool satisfied = false;
      for (const CompiledMapping& a : cs_.mappings_of(procs[i])) {
        if (!live(a, i)) continue;
        for (const CompiledMapping& b : cs_.mappings_of(procs[j])) {
          if (!live(b, j)) continue;
          if (can_comm(a.unit, b.unit)) {
            satisfied = true;
            break;
          }
        }
        if (satisfied) break;
      }
      if (!satisfied) return true;
    }
  }
  return false;
}

bool SpecAnalysis::eca_infeasible(const AllocSet& alloc,
                                  const PreparedEca& eca) const {
  const CompiledFlat* flat = eca.flat.get();
  if (flat == nullptr) return false;  // cannot reason: leave it to the solver
  return relaxation_infeasible(alloc, flat->graph.vertices, flat->demand,
                               flat->footprint, flat->edge_pairs);
}

bool SpecAnalysis::allocation_infeasible(const AllocSet& alloc) const {
  return relaxation_infeasible(alloc, mandatory_procs_, mandatory_demand_,
                               mandatory_footprint_, mandatory_edge_idx_);
}

void SpecAnalysis::collect_core(ClusterId cid, std::vector<NodeId>& procs,
                                std::vector<ClusterId>& visited) const {
  const HierarchicalGraph& p = cs_.problem();
  visited.push_back(cid);
  const Cluster& c = p.cluster(cid);
  for (NodeId nid : c.nodes) {
    const Node& n = p.node(nid);
    if (!n.is_interface()) {
      procs.push_back(nid);
    } else if (n.clusters.size() == 1) {
      // A single-alternative interface activates its only refinement in
      // every elementary activation.
      collect_core(n.clusters.front(), procs, visited);
    }
  }
}

void SpecAnalysis::compute_mandatory_core() {
  const HierarchicalGraph& p = cs_.problem();
  std::vector<ClusterId> visited;
  collect_core(p.root(), mandatory_procs_, visited);
  std::sort(mandatory_procs_.begin(), mandatory_procs_.end(),
            [](NodeId a, NodeId b) { return a.index() < b.index(); });

  std::vector<std::size_t> index_of(p.node_count(), CompiledFlat::npos);
  for (std::size_t i = 0; i < mandatory_procs_.size(); ++i)
    index_of[mandatory_procs_[i].index()] = i;
  for (ClusterId cid : visited) {
    for (EdgeId eid : p.cluster(cid).edges) {
      const Edge& e = p.edge(eid);
      const std::size_t i = index_of[e.from.index()];
      const std::size_t j = index_of[e.to.index()];
      if (i == CompiledFlat::npos || j == CompiledFlat::npos) continue;
      mandatory_edges_.emplace_back(e.from, e.to);
      mandatory_edge_idx_.emplace_back(i, j);
    }
  }

  mandatory_demand_.reserve(mandatory_procs_.size());
  mandatory_footprint_.reserve(mandatory_procs_.size());
  for (NodeId nid : mandatory_procs_) {
    mandatory_demand_.push_back(cs_.demand(nid));
    mandatory_footprint_.push_back(cs_.footprint(nid));
  }
}

bool SpecAnalysis::cluster_core_infeasible(ClusterId cluster) const {
  const HierarchicalGraph& p = cs_.problem();
  std::vector<NodeId> procs;
  std::vector<ClusterId> visited;
  collect_core(cluster, procs, visited);
  if (procs.empty()) return false;

  // Positions of the core's processes, sorted by node id.  Lint asks this
  // of every cluster, so the index covers the core only: one sized to the
  // whole problem graph made the rule quadratic in the spec.
  std::vector<std::pair<std::size_t, std::size_t>> position;
  position.reserve(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i)
    position.emplace_back(procs[i].index(), i);
  std::sort(position.begin(), position.end());
  const auto index_of = [&position](NodeId node) {
    const auto it = std::lower_bound(
        position.begin(), position.end(),
        std::pair<std::size_t, std::size_t>{node.index(), 0});
    return it != position.end() && it->first == node.index()
               ? it->second
               : CompiledFlat::npos;
  };
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (ClusterId cid : visited) {
    for (EdgeId eid : p.cluster(cid).edges) {
      const Edge& e = p.edge(eid);
      const std::size_t i = index_of(e.from);
      const std::size_t j = index_of(e.to);
      if (i == CompiledFlat::npos || j == CompiledFlat::npos) continue;
      edges.emplace_back(i, j);
    }
  }
  std::vector<double> demand;
  std::vector<double> footprint;
  demand.reserve(procs.size());
  footprint.reserve(procs.size());
  for (NodeId nid : procs) {
    demand.push_back(cs_.demand(nid));
    footprint.push_back(cs_.footprint(nid));
  }
  return relaxation_infeasible(full_alloc_, procs, demand, footprint, edges);
}

Json SpecAnalysis::to_json() const {
  const HierarchicalGraph& p = cs_.problem();
  JsonArray clusters;
  clusters.reserve(p.cluster_count());
  for (const Cluster& c : p.clusters()) {
    const ClusterBounds& b = bounds_[c.id.index()];
    JsonObject o;
    o.emplace_back("cluster", cluster_path(p, c.id));
    o.emplace_back("root", c.is_root());
    o.emplace_back("lo", bound_json(b.lo));
    o.emplace_back("hi", bound_json(b.hi));
    o.emplace_back("hi_cover", bound_json(b.hi_cover));
    o.emplace_back("reachable", b.reachable());
    if (b.reachable())
      o.emplace_back("witness",
                     cs_.spec().allocation_names(b.witness));
    clusters.emplace_back(std::move(o));
  }

  std::size_t comm_bad = 0;
  for (const Cluster& c : p.clusters()) {
    for (EdgeId eid : c.edges) {
      const Edge& e = p.edge(eid);
      if (p.node(e.from).is_interface() || p.node(e.to).is_interface())
        continue;
      if (!edge_comm_satisfiable(e.from, e.to)) ++comm_bad;
    }
  }

  JsonObject root;
  root.emplace_back("spec", cs_.spec().name());
  root.emplace_back("units", cs_.unit_count());
  root.emplace_back("clusters", std::move(clusters));
  root.emplace_back("front_provably_empty",
                    allocation_infeasible(full_alloc_));
  root.emplace_back("mandatory_processes", mandatory_procs_.size());
  root.emplace_back("comm_unsatisfiable_edges", comm_bad);
  return Json(std::move(root));
}

std::string SpecAnalysis::to_table() const {
  const HierarchicalGraph& p = cs_.problem();
  Table table({"cluster", "lo", "hi", "hi_cover", "reachable"});
  for (const Cluster& c : p.clusters()) {
    const ClusterBounds& b = bounds_[c.id.index()];
    table.add_row({cluster_path(p, c.id), bound_str(b.lo), bound_str(b.hi),
                   bound_str(b.hi_cover), b.reachable() ? "yes" : "no"});
  }
  return table.to_ascii();
}

}  // namespace sdf
