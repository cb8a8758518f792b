// Activatability analysis and flexibility estimation (§4).
//
// Given a resource allocation (a set of allocatable units), a problem-graph
// cluster is *activatable* when the allocation could implement it if binding
// feasibility is ignored:
//   - every non-hierarchical vertex of the cluster has at least one mapping
//     edge into an allocated unit ("reachable resources" R_ij), and
//   - every interface of the cluster has at least one activatable
//     refinement (recursively).
//
// The *flexibility estimate* of an allocation is Def. 4 evaluated with
// a+ = activatable; it upper-bounds the flexibility of any implementation
// on that allocation and is the bound the EXPLORE algorithm prunes with.
// An allocation is a *possible resource allocation* iff the root cluster is
// activatable — i.e. at least one complete problem-graph activation is
// coverable.
#pragma once

#include <optional>

#include "flex/flexibility.hpp"
#include "spec/specification.hpp"

namespace sdf {

class CompiledSpec;

/// Per-cluster activatability of the problem graph under `alloc`.
class Activatability {
 public:
  /// One bitset intersection per process against the compiled
  /// reachable-unit sets, no per-call allocation.
  Activatability(const CompiledSpec& cs, const AllocSet& alloc);

  /// True iff `cluster` (a problem-graph cluster) is activatable.
  [[nodiscard]] bool activatable(ClusterId cluster) const {
    return activatable_.test(cluster.index());
  }

  /// Bitset over problem-graph cluster ids (root included).
  [[nodiscard]] const DynBitset& clusters() const { return activatable_; }

  /// True iff the root cluster is activatable: the allocation is a
  /// *possible resource allocation*.
  [[nodiscard]] bool root_activatable() const { return root_; }

  /// Def. 4 with a+ = activatable; `nullopt` when the root itself is not
  /// activatable (no feasible problem activation exists at all).
  [[nodiscard]] std::optional<double> estimated_flexibility() const;

 private:
  const HierarchicalGraph& problem_;
  DynBitset activatable_;
  bool root_ = false;
};

/// Convenience: the flexibility estimate of `alloc`, or `nullopt` when
/// `alloc` is not a possible resource allocation.
[[nodiscard]] std::optional<double> estimate_flexibility(
    const CompiledSpec& cs, const AllocSet& alloc);

/// Convenience: possible-resource-allocation test (§4).
[[nodiscard]] bool is_possible_allocation(const CompiledSpec& cs,
                                          const AllocSet& alloc);

}  // namespace sdf
