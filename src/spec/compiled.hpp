// Compiled query index over a specification graph.
//
// Every engine that walks the design space — EXPLORE's activatability
// filter, the branch bound, the binding solver, the lint rules — asks the
// same spec-level questions thousands of times: which units can a process
// map to, can two units communicate under an allocation, what does this
// cluster selection flatten to.  Answering them from the raw
// `SpecificationGraph` re-scans the mapping-edge list and re-flattens the
// hierarchy per call.
//
// `CompiledSpec` answers them from an immutable, arena-style index built in
// one pass:
//   * mapping edges grouped per process in CSR layout (`mappings_of` is a
//     zero-allocation span, insertion order preserved),
//   * per-process reachable-unit bitsets (activatability is one bitset
//     intersection) plus the first-seen-order unit lists,
//   * per-unit candidate-process lists (CSR),
//   * dense per-process attribute arrays (period, timing weight, footprint,
//     timing demand) replacing per-call `attr_or` map lookups,
//   * per-unit top/comm adjacency bitsets making `comm_reachable` a
//     three-way word-wise intersection with no allocation,
//   * a memoized flatten cache keyed by cluster selection, each entry
//     carrying the solver-ready dense index/adjacency/attribute arrays,
//     bounded by an LRU entry/byte budget,
//   * a memo of prepared activations keyed by (activatable-cluster set,
//     ECA cap): each set's elementary cluster activations enumerated once,
//     with their flattenings and cache keys (`prepared_ecas`), under the
//     same budget, and
//   * a per-cluster decomposition sub-index (`decomposition()`): the static
//     partition of each cluster's interior into independently bindable
//     groups, which the hierarchical solve path combines at interfaces
//     instead of flattening (see bind/bind_cache.hpp, `HierCache`).
//
// All queries except `flat()` and `prepared_ecas()` touch only immutable
// state and are safe to call concurrently; those two are internally
// synchronized.  Obtain an instance via `SpecificationGraph::compiled()`
// (lazily built, invalidated by mutation) or build one directly for full
// control of its lifetime.
// The index holds references into the owning `SpecificationGraph`; mutating
// the spec invalidates a directly-constructed index.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/eca.hpp"
#include "graph/flatten.hpp"
#include "spec/specification.hpp"
#include "util/dyn_bitset.hpp"

namespace sdf {

/// One mapping edge as the index stores it: the raw edge plus the resolved
/// allocatable unit (invalid when the resource is not owned by any unit,
/// e.g. a defective mapping onto an interface).
struct CompiledMapping {
  NodeId resource;
  AllocUnitId unit;
  double latency = 0.0;
};

/// One memoized flattening: the flat graph plus the dense arrays the
/// binding solver needs, built once per distinct cluster selection.
struct CompiledFlat {
  FlatGraph graph;
  /// Position of each problem node in `graph.vertices`; `npos` when the
  /// node is not an active leaf of this flattening.
  std::vector<std::size_t> index_of;
  /// Undirected adjacency between vertex positions (both directions of
  /// every flat dependence edge).
  std::vector<std::vector<std::size_t>> adj;
  /// `graph.edges` as vertex positions, one (from, to) pair per edge: the
  /// static analyzer's relaxation walks these.
  std::vector<std::pair<std::size_t, std::size_t>> edge_pairs;
  /// Timing demand (timing_weight / period; 0 = unconstrained) and
  /// footprint per vertex position.
  std::vector<double> demand;
  std::vector<double> footprint;
  /// The binding solver's load orders (`CompiledSpec::sort_loads`).
  /// `load_order` lists the mapping alternatives of vertices with a
  /// positive demand whose utilization share demand × latency is not NaN,
  /// by position in the concatenation of `CompiledSpec::mappings_of` over
  /// `graph.vertices`, largest share first; `footprint_order` lists the
  /// vertex positions with a positive footprint, largest first.
  std::vector<std::uint32_t> load_order;
  std::vector<std::uint32_t> footprint_order;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// One group of a cluster's static decomposition: a connected component of
/// the cluster's direct nodes under the coupling relation "shares a
/// dependence edge, a mappable unit, or a reconfigurable device (in any
/// alternative)".  No solver constraint — mapping domains, communication
/// along dependence edges, exclusive configurations, utilization or
/// capacity sums — can span two groups of the same cluster, so each group's
/// binding sub-problem is solvable independently and the verdicts combine
/// by conjunction.
struct ClusterGroup {
  /// Direct nodes of the owning cluster in this group, ascending id.
  std::vector<NodeId> items;
  /// Every problem node that can appear under these items in *any*
  /// selection: the items plus all descendants of all alternatives.
  DynBitset subtree_nodes;
  /// Interfaces among `subtree_nodes`; a cluster selection restricted to
  /// these fully determines the group's flat sub-problem.
  DynBitset subtree_interfaces;
  /// Units some process under the group can map to (union over all
  /// alternatives) — the group's share of the allocation.
  DynBitset subtree_units;
  /// True iff the group is exactly one interface item (then necessarily
  /// with no incident edges): the hierarchical solver recurses into the
  /// selected refinement instead of solving the group flat.
  bool single_interface = false;
  /// Canonical digest of the group's static port signature: item kinds and,
  /// for interfaces, port counts/directions/mapping arities.  Folded into
  /// the hierarchical cache key next to the cluster id and the restricted
  /// selection.
  std::uint64_t signature = 0;
};

/// Per-cluster decomposition, built once at index-construction time.
struct ClusterDecomposition {
  std::vector<ClusterGroup> groups;
  /// True when solving this cluster hierarchically can beat the flat
  /// kernel: more than one group, or a lone single-interface group with a
  /// decomposable alternative somewhere below it.
  bool useful = false;
};

/// One terminal group of an ECA's recursive decomposition: the
/// hierarchical solve path (`HierCache`) solves it as one flat sub-problem.
struct PreparedGroup {
  const ClusterGroup* group = nullptr;  ///< into the owning index
  /// `HierCache` key: cluster id, group index, the group's port-signature
  /// digest, and the selection restricted to the group's subtree
  /// interfaces (which fully determines the group's flat sub-problem).
  std::vector<std::uint32_t> key;
};

/// One elementary cluster activation with everything a binding query asks
/// of it that depends on the activation alone, computed once per spec.
/// An entry of a list that outgrew the byte budget holds `eca` alone
/// (`prepared()` is false; see `CompiledSpec::prepared_ecas`).
struct PreparedEca {
  Eca eca;
  /// `CompiledSpec::flat(eca.selection)`; null when the selection does not
  /// flatten.
  std::shared_ptr<const CompiledFlat> flat;
  /// `BindCache` key: the sorted selection pairs plus the activated
  /// clusters.  Two ECAs with equal keys flatten to the same sub-problem.
  std::vector<std::uint32_t> key;
  /// Terminal groups under `eca.selection`, in decomposition order: a
  /// single-interface group whose selected alternative decomposes recurses
  /// into it, every other group is terminal.  Their subtree node sets
  /// partition the flattening's vertices.  Empty when `flat` is null.
  std::vector<PreparedGroup> groups;

  /// False for an entry that holds its ECA alone.
  [[nodiscard]] bool prepared() const { return !key.empty(); }
};

/// An activatable-cluster set's prepared ECAs, in `enumerate_ecas` order.
using PreparedEcas = std::vector<PreparedEca>;

class CompiledSpec {
 public:
  /// Builds the full index; `spec` must outlive the instance and stay
  /// unmodified while it is in use.
  explicit CompiledSpec(const SpecificationGraph& spec);

  CompiledSpec(const CompiledSpec&) = delete;
  CompiledSpec& operator=(const CompiledSpec&) = delete;

  [[nodiscard]] const SpecificationGraph& spec() const { return spec_; }
  [[nodiscard]] const HierarchicalGraph& problem() const {
    return spec_.problem();
  }
  [[nodiscard]] const HierarchicalGraph& architecture() const {
    return spec_.architecture();
  }

  // ---- units ----------------------------------------------------------------

  [[nodiscard]] const std::vector<AllocUnit>& units() const { return units_; }
  [[nodiscard]] std::size_t unit_count() const { return units_.size(); }
  [[nodiscard]] const AllocUnit& unit(AllocUnitId id) const {
    return units_[id.index()];
  }
  [[nodiscard]] AllocSet make_alloc_set() const {
    return AllocSet(units_.size());
  }
  /// The unit owning architecture leaf `resource`; invalid when none does.
  [[nodiscard]] AllocUnitId unit_of_resource(NodeId resource) const {
    return resource_to_unit_[resource.index()];
  }
  /// kCapacity of the unit's vertex or configuration cluster; 0 = unlimited.
  [[nodiscard]] double unit_capacity(AllocUnitId id) const {
    return unit_capacity_[id.index()];
  }
  /// All unit capacities, indexed by unit.
  [[nodiscard]] const std::vector<double>& unit_capacities() const {
    return unit_capacity_;
  }
  /// Units at least one process has a mapping edge into.
  [[nodiscard]] const DynBitset& mappable_units() const {
    return mappable_units_;
  }
  /// Distinct top-level architecture nodes adjacent to the unit's top by
  /// architecture edges; populated for communication units only (the §5
  /// dominance filter inspects no other adjacency).
  [[nodiscard]] const std::vector<NodeId>& comm_neighbor_tops(
      AllocUnitId id) const {
    return comm_neighbor_tops_[id.index()];
  }

  /// Allocation cost, bit-identical to the shim: unit costs in ascending
  /// unit order plus, once per architecture interface with an allocated
  /// configuration, the interface's own cost.
  [[nodiscard]] double allocation_cost(const AllocSet& alloc) const;

  // ---- mapping edges --------------------------------------------------------

  [[nodiscard]] std::size_t process_count() const {
    return spec_.problem().node_count();
  }
  /// Mapping edges of `process`, insertion order.  Zero-allocation.
  [[nodiscard]] std::span<const CompiledMapping> mappings_of(
      NodeId process) const {
    const std::size_t i = process.index();
    return {map_entries_.data() + map_offsets_[i],
            map_offsets_[i + 1] - map_offsets_[i]};
  }
  /// Units `process` can map to, as a bitset over the unit universe.
  [[nodiscard]] const DynBitset& reachable_units(NodeId process) const {
    return reach_bits_[process.index()];
  }
  /// Same set as a first-seen-order list (the shim's historical order).
  [[nodiscard]] std::span<const AllocUnitId> reachable_unit_list(
      NodeId process) const {
    const std::size_t i = process.index();
    return {reach_list_.data() + reach_offsets_[i],
            reach_offsets_[i + 1] - reach_offsets_[i]};
  }
  /// Processes with at least one mapping edge into `unit`, ascending id,
  /// deduplicated.
  [[nodiscard]] std::span<const NodeId> processes_on(AllocUnitId unit) const {
    const std::size_t i = unit.index();
    return {unit_procs_.data() + unit_proc_offsets_[i],
            unit_proc_offsets_[i + 1] - unit_proc_offsets_[i]};
  }

  // ---- per-process attributes (dense) ---------------------------------------

  [[nodiscard]] double period(NodeId process) const {
    return period_[process.index()];
  }
  [[nodiscard]] double timing_weight(NodeId process) const {
    return weight_[process.index()];
  }
  [[nodiscard]] double footprint(NodeId process) const {
    return footprint_[process.index()];
  }
  /// timing_weight / period when both are positive, else 0 (the solver's
  /// "unconstrained" marker).
  [[nodiscard]] double demand(NodeId process) const {
    return demand_[process.index()];
  }

  // ---- communication --------------------------------------------------------

  /// True iff the tops of `a` and `b` coincide or share a direct
  /// architecture edge (either direction).
  [[nodiscard]] bool tops_direct(AllocUnitId a, AllocUnitId b) const {
    return tops_direct_[a.index()].test(b.index());
  }
  /// One-hop-bus reachability under `alloc` (the default `CommModel`):
  /// direct, or some allocated communication unit adjacent to both tops.
  [[nodiscard]] bool comm_reachable(const AllocSet& alloc, AllocUnitId a,
                                    AllocUnitId b) const {
    if (tops_direct_[a.index()].test(b.index())) return true;
    return DynBitset::intersects(alloc, comm_adj_[a.index()],
                                 comm_adj_[b.index()]);
  }

  // ---- flatten cache --------------------------------------------------------

  /// The memoized flattening of the problem graph under `selection`;
  /// nullptr when the selection does not flatten (e.g. an unselected
  /// reached interface).  Entries are retained under an LRU entry/byte
  /// budget (`set_flat_cache_budget`); the shared_ptr keeps an entry alive
  /// across its eviction, so callers may hold it as long as the index
  /// lives.  Thread-safe.
  [[nodiscard]] std::shared_ptr<const CompiledFlat> flat(
      const ClusterSelection& selection) const;
  /// Fills `flat.load_order` and `flat.footprint_order` from its vertices
  /// and dense attribute arrays.  `flat()` does it for every flattening it
  /// builds; a caller that slices its own sub-flattening (the hierarchical
  /// solve path) does it once per slice.
  void sort_loads(CompiledFlat& flat) const;

  /// Reconfigures the LRU budget (entries / approximate payload bytes; 0 =
  /// unlimited for that dimension) of the flatten cache and, separately,
  /// of the prepared-activation memo, and evicts both down to it.
  /// Thread-safe; `const` because both are memoization state.
  void set_flat_cache_budget(std::size_t max_entries,
                             std::size_t max_bytes) const;
  /// Live flatten-cache entries / cumulative LRU evictions.
  [[nodiscard]] std::uint64_t flat_cache_entries() const;
  [[nodiscard]] std::uint64_t flat_cache_evictions() const;

  // ---- prepared activations ------------------------------------------------

  /// The elementary cluster activations of `activatable` (a bitset over
  /// problem clusters), exactly `enumerate_ecas(problem(), activatable,
  /// eca_limit)` in order, each prepared (`prepare`) while the list's
  /// flattenings fit the flatten cache's byte budget; the entries past it
  /// hold their ECA alone, for the caller to prepare per query.  Memoized
  /// per (activatable, eca_limit) under the flatten cache's entry/byte
  /// budget, counted separately; the returned list is immutable and stays
  /// valid across its eviction.  Thread-safe: one lock per call on a hit.
  [[nodiscard]] std::shared_ptr<const PreparedEcas> prepared_ecas(
      const DynBitset& activatable, std::size_t eca_limit) const;
  /// Prepares one ECA: flattens its selection (`flat()`) and builds its
  /// cache keys and terminal groups.  Not memoized itself.
  [[nodiscard]] PreparedEca prepare(Eca eca) const;
  /// Live prepared-activation lists.
  [[nodiscard]] std::uint64_t prepared_entries() const;

  // ---- hierarchical decomposition -------------------------------------------

  /// The static decomposition of `cluster`'s interior.
  [[nodiscard]] const ClusterDecomposition& decomposition(
      ClusterId cluster) const {
    return decomposition_[cluster.index()];
  }
  /// True when the root decomposes: the hierarchical solve path can beat
  /// the flat kernel on this spec.  When false the flat path is used
  /// unchanged (identical stats, not merely identical verdicts).
  [[nodiscard]] bool hier_useful() const { return hier_useful_; }
  /// Communication units (buses), over the unit universe — the
  /// allocation-projection mask extension for the one-hop comm model.
  [[nodiscard]] const DynBitset& comm_units() const { return comm_units_; }

 private:
  using FlatKey = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  struct FlatEntry {
    std::shared_ptr<const CompiledFlat> flat;  ///< null = failed flattening
    std::size_t bytes = 0;
    std::list<const FlatKey*>::iterator lru;   ///< position in lru_
  };

  struct PreparedKey {
    DynBitset activatable;
    std::size_t eca_limit = 0;
    bool operator==(const PreparedKey&) const = default;
  };
  struct PreparedKeyHash {
    std::size_t operator()(const PreparedKey& key) const {
      return key.activatable.hash() ^ (key.eca_limit * 0x9e3779b97f4a7c15ull);
    }
  };
  struct PreparedEntry {
    std::shared_ptr<const PreparedEcas> ecas;
    std::size_t bytes = 0;
    std::list<const PreparedKey*>::iterator lru;  ///< position in prep_lru_
  };

  void build_decomposition();
  void evict_flat_locked() const;
  void evict_prepared_locked() const;

  const SpecificationGraph& spec_;

  // Units (copied so the index is self-contained).
  std::vector<AllocUnit> units_;
  std::vector<AllocUnitId> resource_to_unit_;  // by architecture NodeId
  std::vector<double> unit_capacity_;          // by unit
  DynBitset mappable_units_;
  std::vector<std::vector<NodeId>> comm_neighbor_tops_;  // by unit

  // Allocation-cost inputs: interface cost charged once per allocated
  // configuration; `unit_iface_slot_` maps cluster units to a dense slot.
  std::vector<std::size_t> unit_iface_slot_;  // by unit; npos for vertex units
  std::vector<double> iface_cost_;            // by slot
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Mapping edges, CSR by process.
  std::vector<std::size_t> map_offsets_;     // node_count + 1
  std::vector<CompiledMapping> map_entries_;

  // Reachable units per process.
  std::vector<DynBitset> reach_bits_;        // by problem NodeId
  std::vector<std::size_t> reach_offsets_;   // node_count + 1
  std::vector<AllocUnitId> reach_list_;

  // Candidate processes per unit, CSR.
  std::vector<std::size_t> unit_proc_offsets_;  // unit_count + 1
  std::vector<NodeId> unit_procs_;

  // Dense per-process attributes.
  std::vector<double> period_, weight_, footprint_, demand_;

  // Per-unit communication bitsets over the unit universe.
  std::vector<DynBitset> tops_direct_;  // same top or direct edge
  std::vector<DynBitset> comm_adj_;     // comm units adjacent to my top
  DynBitset comm_units_;                // all comm units

  // Hierarchical decomposition sub-index, by cluster id.
  std::vector<ClusterDecomposition> decomposition_;
  bool hier_useful_ = false;

  // Flatten cache; null entries memoize failed flattenings.  `lru_` orders
  // the keys most-recently-used first; entries beyond the budget are
  // evicted (their flattening stays alive through any shared_ptr a caller
  // still holds, and is simply recomputed on the next request).
  mutable std::mutex flat_mutex_;
  mutable std::map<FlatKey, FlatEntry> flat_cache_;
  mutable std::list<const FlatKey*> lru_;
  mutable std::size_t flat_bytes_ = 0;
  mutable std::size_t flat_max_entries_ = 1024;
  mutable std::size_t flat_max_bytes_ = std::size_t{64} << 20;
  mutable std::uint64_t flat_evictions_ = 0;

  // Prepared-activation memo: the same LRU scheme as the flatten cache,
  // with its own lock and its own tally against the same limits (which
  // `set_flat_cache_budget` writes under both locks).  A list holds its
  // flattenings, so its bytes count them too.
  mutable std::mutex prep_mutex_;
  mutable std::unordered_map<PreparedKey, PreparedEntry, PreparedKeyHash>
      prep_cache_;
  mutable std::list<const PreparedKey*> prep_lru_;
  mutable std::size_t prep_bytes_ = 0;
};

}  // namespace sdf
