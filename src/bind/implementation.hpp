// Implementations: feasible allocation + bindings + implemented flexibility.
//
// "A feasible implementation consists of a feasible allocation and a
// corresponding feasible binding." (§2)  Because the system switches
// behavior over time, an implementation here carries one feasible binding
// per feasible *elementary cluster activation*; a cluster counts towards
// the implemented flexibility iff it occurs in at least one feasible,
// timing-valid elementary activation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bind/eca.hpp"
#include "bind/solver.hpp"
#include "spec/specification.hpp"

namespace sdf {

/// One elementary cluster activation together with its feasible binding.
struct FeasibleEca {
  Eca eca;
  Binding binding;
};

/// A feasible implementation of a specification on one allocation.
struct Implementation {
  AllocSet units;
  double cost = 0.0;
  /// All feasible elementary activations found (the system may switch
  /// between them at run time).
  std::vector<FeasibleEca> ecas;
  /// Problem-graph clusters activated by at least one feasible ECA.
  DynBitset implemented_clusters;
  /// Def. 4 over `implemented_clusters`.
  double flexibility = 0.0;
  /// Alternative implementations with identical (cost, flexibility) but a
  /// different allocation; populated only by
  /// `ExploreOptions::collect_equivalents`.
  std::vector<Implementation> equivalents;

  /// Leaf-level implemented clusters (no nested interfaces), ascending —
  /// the granularity the paper's §5 results table lists.
  [[nodiscard]] std::vector<ClusterId> leaf_clusters(
      const HierarchicalGraph& problem) const;

  /// Minimal switching set: a greedy coverage of the implemented clusters
  /// by feasible elementary activations.
  [[nodiscard]] std::vector<Eca> minimal_cover(
      const HierarchicalGraph& problem) const;
};

class BindCache;
class HierCache;
class SpecAnalysis;

struct ImplementationOptions {
  SolverOptions solver;
  /// Cap on enumerated elementary activations (0 = unlimited).
  std::size_t eca_limit = 4096;
  /// Cross-allocation binding cache (not owned; may be null).  When set,
  /// every ECA feasibility query routes through it; verdicts — and thus the
  /// resulting implementation, flexibility and cost — are identical to the
  /// raw solver's.
  BindCache* bind_cache = nullptr;
  /// Engine-level default: the explore engines attach a run-local cache
  /// when this is true and `bind_cache` is null.  `--no-bind-cache` clears
  /// it.  This turns off the per-ECA cache of the flat path only: a spec
  /// that decomposes still takes the hierarchical path and its cache
  /// unless `use_hier` is cleared too.
  bool use_bind_cache = true;
  /// Static analyzer (not owned; may be null).  When set and `use_analysis`
  /// is true, each ECA query runs the sound infeasibility relaxation first
  /// and skips the solver search on a proof.  The verdict — and thus the
  /// implementation, `solver_calls` and every checkpointed counter — is
  /// identical either way; only `solver_nodes` (work actually searched)
  /// shrinks.  Must have been built from this spec with these solver
  /// options.
  const SpecAnalysis* analysis = nullptr;
  /// Engine-level default, mirroring `use_bind_cache`: the explore engines
  /// attach a run-local analyzer when this is true and `analysis` is null.
  /// `--no-analysis` clears it.
  bool use_analysis = true;
  /// Hierarchical sub-solve cache (not owned; may be null).  When set, and
  /// `use_hier` holds, and the spec decomposes (`cs.hier_useful()`), every
  /// ECA query routes through the per-cluster-group path instead of the
  /// flat kernel / per-ECA cache.  Verdicts, fronts and `solver_calls` are
  /// identical; `solver_nodes` shrinks.  On specs that do not decompose the
  /// flat path runs unchanged — bit-identical stats, not merely identical
  /// verdicts.
  HierCache* hier_cache = nullptr;
  /// Engine-level default, mirroring `use_bind_cache`: the explore engines
  /// attach a run-local `HierCache` when this is true and `hier_cache` is
  /// null.  `--no-hier` clears it.
  bool use_hier = true;
};

struct ImplementationStats {
  std::uint64_t ecas_enumerated = 0;
  /// ECA feasibility queries issued (cache hits included) — invariant
  /// under caching and under checkpoint/resume.
  std::uint64_t solver_calls = 0;
  /// Decision nodes actually searched — the work metric the cache reduces;
  /// NOT resume-invariant when the cache is on (a resumed run starts
  /// cold).
  std::uint64_t solver_nodes = 0;
  std::uint64_t cache_hits_feasible = 0;
  std::uint64_t cache_hits_infeasible = 0;
  std::uint64_t cache_revalidations = 0;
  /// ECA queries answered "infeasible" by the static relaxation without
  /// searching.  Informational (like the cache counters): not checkpointed.
  std::uint64_t analysis_pruned = 0;
  /// Hierarchical path: per-cluster-group sub-solves run / group verdicts
  /// answered from the `HierCache` frontier.  Informational, not
  /// checkpointed; zero when the spec does not decompose or `--no-hier`.
  std::uint64_t hier_subsolves = 0;
  std::uint64_t hier_hits = 0;
  /// Solver calls that were aborted by the run budget (vs. proven
  /// infeasible).  When nonzero the construction is *incomplete*: the
  /// returned implementation (or nullopt) says nothing definitive about
  /// this allocation and must not enter a certified front.
  std::uint64_t budget_aborted_calls = 0;
  [[nodiscard]] bool budget_exceeded() const {
    return budget_aborted_calls != 0;
  }
};

/// Tries to construct a feasible implementation of `spec` on `alloc`:
/// enumerates the elementary cluster activations of the activatable
/// clusters, solves the binding problem for each, and aggregates the
/// feasible ones.  Returns nullopt when no elementary activation is
/// feasible (the allocation implements nothing).  The compiled form is the
/// hot path of EXPLORE's inner loop; the `SpecificationGraph` form is a
/// shim over `spec.compiled()`.
[[nodiscard]] std::optional<Implementation> build_implementation(
    const CompiledSpec& cs, const AllocSet& alloc,
    const ImplementationOptions& options = {},
    ImplementationStats* stats = nullptr);
[[nodiscard]] std::optional<Implementation> build_implementation(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const ImplementationOptions& options = {},
    ImplementationStats* stats = nullptr);

}  // namespace sdf
