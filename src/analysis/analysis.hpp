// Abstract interpretation over specification graphs (static analysis).
//
// The binding problem is NP-complete and EXPLORE may issue thousands of
// solver queries; this module computes *sound* summaries of a specification
// without ever invoking the solver, by abstract interpretation over the
// hierarchy and the compiled dense arrays:
//
//  * **Cost intervals per cluster** — for every problem-graph cluster c,
//    bounds [lo, hi] on `opt(c)`: the cheapest allocation cost that makes c
//    activatable (reachability semantics, Activatability's definition).
//    Computed bottom-up on the hierarchy — min over alternatives, disjoint
//    cover groups over a cluster's own vertices — never by flattening.
//    `hi` is realized by a concrete witness allocation; `hi_cover` is the
//    analogous budget for covering *every* alternative of the subtree.
//
//  * **Resource-capacity relaxation** — a fractional packing bound over the
//    dense demand/footprint arrays that proves an (allocation, activation)
//    pair infeasible before any search: empty candidate domains, per-unit
//    packing of forced assignments, aggregate footprint vs. total capacity,
//    aggregate utilization vs. the schedulability bound, exclusive
//    configurations among forced units.
//
//  * **Comm-reachability closure** — an over-approximation of rule 3: which
//    unit pairs could *ever* communicate (full allocation), and whether a
//    dependence edge admits any communicating candidate pair at all.
//
// Soundness contract: every "infeasible" verdict of the relaxation is a
// proof — the solver would return kInfeasible for the same query (the
// relaxation checks necessary conditions of the solver's constraint system,
// evaluated with at least the solver's epsilon slack).  The relaxation is
// also *monotone* in the allocation lattice: a verdict for allocation A
// holds for every subset of A, which makes it a valid subtree bound for the
// cost-ordered allocation stream.  Bounds assume non-negative cost
// attributes (negative costs are an SDF012 lint error); negative costs are
// clamped to zero, which keeps `lo` sound but may loosen it.
//
// Consumers: lint rules SDF017-SDF021, the whole-allocation preflight of
// `sdf explore`, and the `sdf analyze` CLI subcommand.  Each asks a
// whole-spec question once; the exploration engines do not consult the
// analyzer.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

// Header-only use: SolverOptions (option vocabulary shared with the
// solver).  sdf_analysis does not link sdf_bind, and neither sdf_bind nor
// sdf_explore links sdf_analysis; sdf_lint and sdf_cli do.
#include "bind/solver.hpp"
#include "graph/eca.hpp"
#include "spec/compiled.hpp"
#include "spec/specification.hpp"
#include "util/json.hpp"

namespace sdf {

struct AnalysisOptions {
  /// The solver option set the relaxation must under-approximate: comm
  /// model and utilization bound (exclusive configurations and capacities
  /// always hold).  A verdict is only sound against solver queries issued
  /// with the *same* options.
  SolverOptions solver;
};

/// Cost interval of one problem-graph cluster (see file comment).
struct ClusterBounds {
  /// Lower bound on the cost of any allocation activating the cluster;
  /// +inf when no allocation can (the cluster is reachability-dead).
  double lo = 0.0;
  /// Cost of `witness`, a concrete allocation activating the cluster;
  /// +inf when none exists.  Invariant: lo <= opt <= hi.
  double hi = std::numeric_limits<double>::infinity();
  /// Cost of `witness_cover`, a concrete allocation activating *every*
  /// alternative in the cluster's subtree (the budget for the subtree's
  /// full flexibility); +inf when some alternative is unreachable.
  double hi_cover = std::numeric_limits<double>::infinity();
  /// Witness allocations backing `hi` / `hi_cover`; empty-universe sets
  /// when the corresponding bound is infinite.
  AllocSet witness;
  AllocSet witness_cover;

  /// True iff some allocation activates the cluster at all.
  [[nodiscard]] bool reachable() const {
    return hi != std::numeric_limits<double>::infinity();
  }
};

/// Whole-spec static analysis, immutable after construction.  The
/// relaxation queries reuse one scratch, so one thread at a time may query
/// an instance; its callers (lint, the CLI preflight, `sdf analyze`) each
/// run on one thread.
class SpecAnalysis {
 public:
  /// Builds every summary in one pass over the hierarchy.  `cs` must
  /// outlive the instance.
  explicit SpecAnalysis(const CompiledSpec& cs,
                        const AnalysisOptions& options = {});

  [[nodiscard]] const CompiledSpec& compiled() const { return cs_; }
  [[nodiscard]] const AnalysisOptions& options() const { return options_; }

  // ---- cost intervals -------------------------------------------------------

  [[nodiscard]] const ClusterBounds& bounds(ClusterId cluster) const {
    return bounds_[cluster.index()];
  }
  [[nodiscard]] const ClusterBounds& root_bounds() const {
    return bounds_[cs_.problem().root().index()];
  }

  /// By cluster c: the cost of covering every alternative of the whole
  /// problem graph except c's subtree, with each vertex on its cheapest
  /// reachable unit (lint SDF017 compares an alternative's `lo` against the
  /// rest of the spec); +inf when the remainder itself has an unreachable
  /// alternative.  One pass over the hierarchy for all clusters.
  [[nodiscard]] std::vector<double> cover_costs_excluding() const;

  // ---- communication closure ------------------------------------------------

  /// True iff units `a` and `b` could communicate under *some* allocation
  /// (evaluated under the full allocation — comm feasibility is monotone).
  /// Always true under CommModel::kAnyPath (conservatively not analyzed).
  [[nodiscard]] bool comm_possible(AllocUnitId a, AllocUnitId b) const;

  /// True iff a dependence edge between processes `p` and `q` admits at
  /// least one candidate unit pair that could ever communicate.  False is a
  /// proof that every binding activating both endpoints violates rule 3.
  [[nodiscard]] bool edge_comm_satisfiable(NodeId p, NodeId q) const;

  // ---- relaxation (infeasibility proofs) ------------------------------------

  /// Proof attempt for one solver query: true means the solver would return
  /// kInfeasible for (alloc, eca) under `options().solver`.  False proves
  /// nothing.  The whole-allocation checks below run the same kernel; this
  /// per-ECA form lets a test hold it against solver witnesses.  Runs on
  /// `eca.flat`; `eca` must have been prepared by `compiled()`
  /// (`CompiledSpec::prepare`).
  [[nodiscard]] bool eca_infeasible(const AllocSet& alloc,
                                    const PreparedEca& eca) const;

  /// ECA-independent form over the mandatory core (processes active in
  /// *every* elementary activation): true proves no activation of the
  /// problem graph has a feasible binding under `alloc` — and, by
  /// monotonicity, under any subset of `alloc`.
  [[nodiscard]] bool allocation_infeasible(const AllocSet& alloc) const;

  /// Relaxation over the mandatory core of `cluster`'s own subtree (its
  /// vertices plus, recursively, those behind single-alternative
  /// interfaces) under the *full* allocation: true proves every activation
  /// containing `cluster` is infeasible under every allocation — adding
  /// processes or removing units only adds constraints.  Lint SDF018.
  [[nodiscard]] bool cluster_core_infeasible(ClusterId cluster) const;

  // ---- mandatory core -------------------------------------------------------

  /// Processes active in every elementary activation: the root cluster's
  /// vertices plus, recursively, the vertices behind single-alternative
  /// interfaces.  Ascending node order.
  [[nodiscard]] const std::vector<NodeId>& mandatory_processes() const {
    return mandatory_procs_;
  }
  /// Dependence edges with both endpoints in the mandatory core.
  [[nodiscard]] const std::vector<std::pair<NodeId, NodeId>>&
  mandatory_edges() const {
    return mandatory_edges_;
  }

  // ---- reporting ------------------------------------------------------------

  /// {"spec", "clusters": [{cluster, lo, hi, hi_cover, reachable,
  /// witness_units}...], "front_provably_empty", "mandatory_processes",
  /// "comm_unsatisfiable_edges"}.
  [[nodiscard]] Json to_json() const;

  /// Human-readable per-cluster bound table.
  [[nodiscard]] std::string to_table() const;

 private:
  struct VertexDomain;  // scratch view of one process's live candidates

  void compute_bounds(ClusterId cluster);
  void compute_mandatory_core();
  /// Collects the mandatory core of `cluster`'s subtree: processes active
  /// whenever `cluster` is, and the clusters visited on the way.
  void collect_core(ClusterId cluster, std::vector<NodeId>& procs,
                    std::vector<ClusterId>& visited) const;
  /// Shared relaxation kernel over an explicit process set; `edges` holds
  /// index pairs into `procs`.
  [[nodiscard]] bool relaxation_infeasible(
      const AllocSet& alloc, const std::vector<NodeId>& procs,
      const std::vector<double>& demand, const std::vector<double>& footprint,
      const std::vector<std::pair<std::size_t, std::size_t>>& edges) const;

  /// Scratch of the relaxation, so that the steady state allocates
  /// nothing.  A call leaves `live` set and sums at the units in `forced`;
  /// the next call clears just those instead of refilling the universe.
  struct Scratch {
    DynBitset live;                   ///< union of the live candidates' units
    std::vector<double> forced_fp;    ///< by unit: summed forced footprint
    std::vector<double> forced_util;  ///< by unit: summed forced utilization
    std::vector<std::size_t> forced;  ///< units with a forced process
    /// One forced configuration cluster per device top.
    std::vector<std::pair<NodeId, ClusterId>> forced_configs;
  };

  const CompiledSpec& cs_;
  AnalysisOptions options_;
  mutable Scratch scratch_;
  std::vector<ClusterBounds> bounds_;  // by problem ClusterId
  AllocSet full_alloc_;                // every unit set
  std::vector<NodeId> mandatory_procs_;
  std::vector<std::pair<NodeId, NodeId>> mandatory_edges_;
  // Dense copies for the mandatory core, index-aligned with
  // `mandatory_procs_`; edge pairs as indices into it.
  std::vector<double> mandatory_demand_;
  std::vector<double> mandatory_footprint_;
  std::vector<std::pair<std::size_t, std::size_t>> mandatory_edge_idx_;
};

}  // namespace sdf
