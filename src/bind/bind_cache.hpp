// Cross-allocation monotone feasibility caches for the binding solver.
//
// Binding feasibility is monotone in the allocation lattice: a binding that
// is feasible under allocation A stays feasible under every superset A' ⊇ A
// (the witness only uses units in A, and adding units or buses only adds
// communication reachability), and infeasibility under A transfers to every
// subset.  Both caches below exploit this through one `MonotoneFrontier`,
// which stores per key a frontier of *minimal feasible* allocations (each
// with its witness binding) and *maximal infeasible* allocations:
//
//   * superset hit on the feasible frontier → return the cached witness
//     after a cheap O(n + edges) revalidation pass (no search);
//   * subset hit on the infeasible frontier → proof of infeasibility,
//     no search;
//   * a genuine gap falls through to the solver, whose verdict extends the
//     frontier.
//
// `BindCache` keys the frontier per ECA; `HierCache` per decomposition
// group.  Budget/cancel aborts (`kBudgetExceeded` / `kCancelled` /
// `kNodeLimit`) prove nothing and are never cached.  Neither cache counts
// anything itself: a `solve` adds its hits, revalidations and sub-solves to
// the caller's `SolverStats`, and `entries()` is the one size.
//
// Invariants, in order of importance:
//   1. Soundness: every stored fact was proven by the solver.  This is the
//      only invariant correctness depends on.
//   2. Antichain minimality: an insert drops a fact the frontier already
//      implies and prunes the entries the new one dominates, keeping
//      frontiers small.  Purely an optimization.
//
// Thread safety — mutex shards.  The key space is sharded; a probe scans
// one key's frontier and copies the witness out under its shard's lock, so
// no lock is held across a revalidation or a solve.  An insert updates the
// frontier in place under the lock; both of its fault sites
// (`bind_cache.insert`, `bind_cache.merge`) fire before the first mutation,
// so a fault stores nothing.
//
// The caches are derived data: they are deliberately NOT checkpointed, and
// a resumed run starts cold and rebuilds them (see docs/ROBUSTNESS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bind/solver.hpp"

namespace sdf {

/// Per-key antichains of minimal feasible allocations (with witnesses) and
/// maximal infeasible allocations, in mutex-guarded shards.  A key is an
/// opaque word vector; each cache builds its own.
class MonotoneFrontier {
 public:
  using Key = std::vector<std::uint32_t>;

  /// What the stored facts say about one query allocation.
  struct Probe {
    std::optional<Binding> witness;  ///< copied from a stored feasible subset
    bool infeasible = false;  ///< a stored infeasible superset exists
    /// The key's sub-problem, when the cache stores one (`HierCache`).
    std::shared_ptr<const CompiledFlat> flat;
  };

  /// `shard_count` is clamped to at least one shard.
  explicit MonotoneFrontier(std::size_t shard_count);
  ~MonotoneFrontier();  // out of line: `Shard` is incomplete here

  /// Scans the key's minimal feasible entries, then its maximal infeasible
  /// ones, in stored order; the first feasible subset of `alloc` wins.
  [[nodiscard]] Probe probe(const Key& key, const AllocSet& alloc) const;

  /// Records a solver-proven verdict on `alloc`: feasible with `*witness`,
  /// or infeasible when `witness` is null.  A fact the frontier already
  /// implies is dropped; otherwise the entries it dominates are pruned and
  /// it is appended.  `flat` becomes the key's sub-problem unless one is
  /// already stored.
  void insert(const Key& key, const AllocSet& alloc, const Binding* witness,
              std::shared_ptr<const CompiledFlat> flat = nullptr);

  /// Total frontier entries (minimal feasible + maximal infeasible).
  [[nodiscard]] std::uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }

  /// Drops every key's facts.
  void clear();

 private:
  struct Shard;

  Shard& shard_for(const Key& key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> entries_{0};
};

/// Hierarchical solve path: per-cluster-group sub-solve memoization.
///
/// `CompiledSpec::build_decomposition` partitions every cluster's interior
/// into groups no solver constraint can span (disjoint dependence edges,
/// mappable units and reconfigurable devices — see `ClusterGroup`).  The
/// binding verdict of an ECA is therefore the conjunction of its *terminal
/// groups'* verdicts, and a feasible witness is the disjoint union of the
/// groups' witnesses.  Terminal groups are found by recursion: a
/// single-interface group whose selected alternative itself decomposes
/// recurses into that alternative; every other group is solved as one flat
/// sub-problem (sliced out of the memoized flattening).
///
/// Each group's sub-result is memoized in the same `MonotoneFrontier` the
/// per-ECA `BindCache` uses, keyed by (cluster, group, port-signature
/// digest, selection restricted to the group's subtree interfaces) and
/// probed with the allocation *projected* onto the group's unit share, so
/// the sub-result is reused across every ECA that selects the same sub-tree
/// and every allocation that agrees on the group's units (the
/// "residual-capacity class").  On specs with repeated or deeply nested
/// clusters this turns the multiplicative ECA space into an additive
/// sub-solve space.
///
/// Verdict-identical to the flat kernel by the decomposition contract
/// (DESIGN.md "Hierarchy-native solving"); node counts differ — that is the
/// point.  Budget/cancel/node-limit aborts are never cached.  Like
/// `BindCache` this is derived data and is deliberately not checkpointed.
class HierCache {
 public:
  /// `shard_count` is clamped to at least one shard.
  explicit HierCache(std::size_t shard_count = 16) : frontier_(shard_count) {}

  /// Drop-in replacement for `solve_binding` on specs where
  /// `cs.hier_useful()` holds; the caller is expected to fall back to the
  /// flat path (or `BindCache`) otherwise.  Per-call `stats` fields are
  /// reset exactly like `solve_binding`; cumulative counters (including
  /// `hier_subsolves` / `hier_hits`) accumulate.
  [[nodiscard]] std::optional<Binding> solve(const CompiledSpec& cs,
                                             const AllocSet& alloc,
                                             const Eca& eca,
                                             const SolverOptions& options = {},
                                             SolverStats* stats = nullptr);

  /// Total frontier entries (minimal feasible + maximal infeasible).
  [[nodiscard]] std::uint64_t entries() const { return frontier_.entries(); }

  /// Drops every group frontier.
  void clear() { frontier_.clear(); }

 private:
  MonotoneFrontier frontier_;
};

class BindCache {
 public:
  /// `shard_count` is clamped to at least one shard.
  explicit BindCache(std::size_t shard_count = 16) : frontier_(shard_count) {}

  /// Drop-in replacement for `solve_binding`: answers from the frontier
  /// when the verdict is already proven, otherwise runs the solver and
  /// extends the frontier with its verdict.  Verdicts (and therefore every
  /// front/pruning decision downstream) are identical to the raw solver's;
  /// only the witness binding of a feasible hit may differ (it was found
  /// under a subset allocation and revalidated for this one).
  ///
  /// Per-call `stats` fields (`outcome`, `aborted`) are reset exactly like
  /// `solve_binding`; cumulative counters (including `cache_hits_*` and
  /// `cache_revalidations`) accumulate.
  [[nodiscard]] std::optional<Binding> solve(const CompiledSpec& cs,
                                             const AllocSet& alloc,
                                             const Eca& eca,
                                             const SolverOptions& options = {},
                                             SolverStats* stats = nullptr);

  /// Total frontier entries (minimal feasible + maximal infeasible).
  [[nodiscard]] std::uint64_t entries() const { return frontier_.entries(); }

  /// Drops every ECA frontier.
  void clear() { frontier_.clear(); }

 private:
  MonotoneFrontier frontier_;
};

}  // namespace sdf
