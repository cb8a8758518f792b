// Hierarchical specification graphs  G_S = (G_P, G_A, E_M)  (§2).
//
// A specification graph couples a hierarchical *problem graph* (behavior), a
// hierarchical *architecture graph* (allocatable resources), and
// user-defined *mapping edges* ("can be implemented by") that link leaves of
// the problem graph to leaves of the architecture graph, annotated with
// execution latencies.
//
// On the architecture side, the paper's exploration reasons about
// *allocatable units*: "only leaves v of the top-level architecture graph or
// whole clusters of the architecture graph are considered" (§4).
// The compiled query index (`CompiledSpec::units()`, also read through
// `SpecificationGraph::alloc_units()`) materializes that view — one unit per
// top-level architecture vertex and one per refinement cluster (e.g. one per
// FPGA configuration) — and `AllocSet` represents allocations as bitsets
// over the unit universe.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/hierarchical_graph.hpp"
#include "spec/attributes.hpp"
#include "util/dyn_bitset.hpp"

namespace sdf {

class CompiledSpec;

/// A mapping edge e in E_M with its latency annotation.
struct MappingEdge {
  NodeId process;   ///< leaf of the problem graph
  NodeId resource;  ///< leaf of the architecture graph
  double latency = 0.0;
};

struct AllocUnitTag {};
/// Dense index into the unit universe (`CompiledSpec::units()`).
using AllocUnitId = StrongId<AllocUnitTag>;

/// One allocatable item of the architecture: either a top-level vertex
/// (processor, ASIC, bus) or a refinement cluster (one reconfigurable-device
/// configuration).
struct AllocUnit {
  AllocUnitId id;
  std::string name;
  /// Valid for vertex units; invalid for cluster units.
  NodeId vertex;
  /// Valid for cluster units; invalid for vertex units.
  ClusterId cluster;
  /// Allocation cost of this unit.
  double cost = 0.0;
  /// True iff this is a pure communication resource (attr::kComm).
  bool is_comm = false;
  /// The top-level architecture node this unit belongs to: the vertex
  /// itself, or the outermost enclosing interface for cluster units.  Two
  /// units with the same top node are alternative configurations of one
  /// physical device.
  NodeId top;

  [[nodiscard]] bool is_cluster_unit() const { return cluster.valid(); }
};

/// A set of allocated units (the architecture half of a timed allocation,
/// Def. 2, projected onto units).
using AllocSet = DynBitset;

class SpecificationGraph {
 public:
  SpecificationGraph();
  SpecificationGraph(std::string name);
  ~SpecificationGraph();

  // Copies and moves transfer the specification data only; the lazily
  // built compiled index starts cold in the destination.
  SpecificationGraph(const SpecificationGraph& other);
  SpecificationGraph& operator=(const SpecificationGraph& other);
  SpecificationGraph(SpecificationGraph&& other) noexcept;
  SpecificationGraph& operator=(SpecificationGraph&& other) noexcept;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Renames the specification.  Streaming ingestion needs this because a
  /// document's "name" key may arrive after construction has begun.  Drops
  /// the compiled index, whose digest covers the name.
  void set_name(std::string name);

  [[nodiscard]] HierarchicalGraph& problem() { return problem_; }
  [[nodiscard]] const HierarchicalGraph& problem() const { return problem_; }
  [[nodiscard]] HierarchicalGraph& architecture() { return architecture_; }
  [[nodiscard]] const HierarchicalGraph& architecture() const {
    return architecture_;
  }

  /// Adds a mapping edge; `process` must be a problem-graph leaf and
  /// `resource` an architecture-graph leaf.
  void add_mapping(NodeId process, NodeId resource, double latency);

  [[nodiscard]] const std::vector<MappingEdge>& mappings() const {
    return mappings_;
  }

  /// The compiled query index of this specification, built lazily and
  /// rebuilt automatically after any mutation of the problem graph, the
  /// architecture graph or the mapping edges, and after a rename.  The
  /// reference stays valid until the next mutation.  Every spec query
  /// (mapping edges per process, reachable units, allocation cost,
  /// communication) is asked of it; the unit accessors below read it too.
  [[nodiscard]] const CompiledSpec& compiled() const;

  // ---- allocatable units ----------------------------------------------------

  // Each of these reads `compiled()`, so its answer follows every mutation;
  // a reference it returns dangles after the next one.

  /// The allocatable-unit universe (`CompiledSpec::units()`): top-level
  /// vertices in node order, then refinement clusters in cluster order.
  [[nodiscard]] const std::vector<AllocUnit>& alloc_units() const;

  /// Unit by name; invalid id when absent.
  [[nodiscard]] AllocUnitId find_unit(std::string_view name) const;

  /// The unit owning architecture leaf `resource`: the leaf's top-level
  /// vertex unit, or the refinement-cluster unit whose subtree contains it.
  [[nodiscard]] AllocUnitId unit_of_resource(NodeId resource) const;

  /// Empty allocation over the unit universe.
  [[nodiscard]] AllocSet make_alloc_set() const;

  /// Human-readable unit list, e.g. "uP2, G1, U2, C1".
  [[nodiscard]] std::string allocation_names(const AllocSet& alloc) const;

  /// Structural sanity of the whole specification (problem and architecture
  /// graphs valid, mapping edges link leaves of the right graphs).
  [[nodiscard]] Status validate() const;

 private:
  std::string name_ = "G_S";
  HierarchicalGraph problem_;
  HierarchicalGraph architecture_;
  std::vector<MappingEdge> mappings_;

  // Lazily built compiled index (mutable cache).  Guarded by a mutex so
  // concurrent readers (parallel explore workers) can share one instance;
  // the version/count snapshot detects staleness after mutations.
  mutable std::mutex compiled_mutex_;
  mutable std::unique_ptr<CompiledSpec> compiled_;
  mutable std::uint64_t compiled_problem_version_ = 0;
  mutable std::uint64_t compiled_architecture_version_ = 0;
  mutable std::size_t compiled_mapping_count_ = 0;
};

}  // namespace sdf
