// Elementary cluster activations (§4).
//
// "An elementary cluster-activation ecs is a set { gamma_i | gamma_i in
// Gamma_act } where exactly one cluster is selected per activated
// interface."  Within one instant the system runs exactly one alternative
// per interface; over time it switches between elementary activations.  A
// *coverage* of the activatable clusters by elementary activations
// witnesses that every cluster is used at some time — the prerequisite for
// it to count towards implemented flexibility.
#pragma once

#include <vector>

#include "graph/flatten.hpp"
#include "util/dyn_bitset.hpp"

namespace sdf {

/// One elementary cluster activation: a complete selection of activatable
/// clusters (one per reached interface) plus the set of clusters it
/// activates.
struct Eca {
  ClusterSelection selection;
  /// Activated clusters, ascending id order.
  std::vector<ClusterId> clusters;
};

/// Enumerates elementary cluster activations of the problem graph that use
/// only `activatable` clusters.  Enumeration is exhaustive up to `limit`
/// results (0 = unlimited); the count can be exponential in hierarchy
/// width, so callers on synthetic inputs should cap it.
///
/// Returns an empty vector when some reached interface has no activatable
/// cluster (no complete activation exists).
[[nodiscard]] std::vector<Eca> enumerate_ecas(const HierarchicalGraph& problem,
                                              const DynBitset& activatable,
                                              std::size_t limit = 0);

/// How many elementary activations `enumerate_ecas(problem, activatable)`
/// returns, counted without building any: per reached cluster, the product
/// over its interfaces of the sum over their activatable alternatives; 0
/// when some reached interface has none.  Exact below 2^53.
[[nodiscard]] double count_ecas(const HierarchicalGraph& problem,
                                const DynBitset& activatable);

/// Greedy coverage of all activatable clusters by elementary activations
/// ("we have to determine a coverage of Gamma_act", §4): repeatedly picks
/// the ECA covering the most not-yet-covered clusters.  Input ECAs are
/// typically `enumerate_ecas(...)` output (possibly filtered to the
/// feasible ones).  Clusters not covered by any given ECA are simply left
/// uncovered.
[[nodiscard]] std::vector<Eca> cover_ecas(const HierarchicalGraph& problem,
                                          const std::vector<Eca>& ecas);

}  // namespace sdf
