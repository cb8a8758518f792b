// Unit tests for the hierarchical graph layer (Def. 1, Eq. 1, flattening).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen/presets.hpp"
#include "graph/dot.hpp"
#include "graph/flatten.hpp"
#include "graph/hierarchical_graph.hpp"
#include "graph/traversal.hpp"
#include "graph/validate.hpp"
#include "spec/spec_io.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

/// Builds the Fig. 1 decoder problem graph:
///   top level: Pa, Pc, ID -> IU
///   ID refined by gD1{Pd1}, gD2{Pd2}, gD3{Pd3}; IU by gU1{Pu1}, gU2{Pu2}.
HierarchicalGraph make_fig1() {
  HierarchicalGraph g("fig1");
  const NodeId pa = g.add_vertex(g.root(), "Pa");
  const NodeId pc = g.add_vertex(g.root(), "Pc");
  (void)pa;
  (void)pc;
  const NodeId id = g.add_interface(g.root(), "ID");
  const NodeId iu = g.add_interface(g.root(), "IU");
  g.add_edge(id, iu);
  for (int i = 1; i <= 3; ++i) {
    const ClusterId c = g.add_cluster(id, "gD" + std::to_string(i));
    g.add_vertex(c, "Pd" + std::to_string(i));
  }
  for (int i = 1; i <= 2; ++i) {
    const ClusterId c = g.add_cluster(iu, "gU" + std::to_string(i));
    g.add_vertex(c, "Pu" + std::to_string(i));
  }
  return g;
}

TEST(HierarchicalGraph, RootClusterExists) {
  HierarchicalGraph g("g");
  EXPECT_TRUE(g.root().valid());
  EXPECT_TRUE(g.cluster(g.root()).is_root());
  EXPECT_EQ(g.cluster_count(), 1u);
}

TEST(HierarchicalGraph, Fig1StructureCounts) {
  const HierarchicalGraph g = make_fig1();
  // 2 vertices + 2 interfaces + 5 refined processes.
  EXPECT_EQ(g.node_count(), 9u);
  // root + 5 refinement clusters.
  EXPECT_EQ(g.cluster_count(), 6u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.all_interfaces().size(), 2u);
  EXPECT_EQ(g.all_refinement_clusters().size(), 5u);
}

TEST(HierarchicalGraph, LeavesMatchEquationOne) {
  // V_l(G) = {Pa, Pc} u {Pd1, Pd2, Pd3} u {Pu1, Pu2}  (the paper's example).
  const HierarchicalGraph g = make_fig1();
  const std::vector<NodeId> leaves = g.leaves();
  EXPECT_EQ(leaves.size(), 7u);
  for (const char* name : {"Pa", "Pc", "Pd1", "Pd2", "Pd3", "Pu1", "Pu2"}) {
    const NodeId n = g.find_node(name);
    ASSERT_TRUE(n.valid()) << name;
    EXPECT_TRUE(std::binary_search(leaves.begin(), leaves.end(), n)) << name;
  }
  // Interfaces are not leaves.
  EXPECT_FALSE(std::binary_search(leaves.begin(), leaves.end(),
                                  g.find_node("ID")));
}

TEST(HierarchicalGraph, DepthCountsLevels) {
  const HierarchicalGraph g = make_fig1();
  EXPECT_EQ(g.depth(g.root()), 2u);

  HierarchicalGraph deep("deep");
  NodeId iface = deep.add_interface(deep.root(), "i0");
  ClusterId c = deep.add_cluster(iface, "c0");
  iface = deep.add_interface(c, "i1");
  c = deep.add_cluster(iface, "c1");
  deep.add_vertex(c, "v");
  EXPECT_EQ(deep.depth(deep.root()), 3u);
}

TEST(HierarchicalGraph, AncestryWalksToRoot) {
  const HierarchicalGraph g = make_fig1();
  const ClusterId gd2 = g.find_cluster("gD2");
  const auto chain = g.ancestry(gd2);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.front(), g.root());
  EXPECT_EQ(chain.back(), gd2);
}

TEST(HierarchicalGraph, AttributesRoundTrip) {
  HierarchicalGraph g("g");
  const NodeId v = g.add_vertex(g.root(), "v");
  EXPECT_EQ(g.attr_or(v, "cost", -1.0), -1.0);
  g.set_attr(v, "cost", 42.0);
  EXPECT_EQ(g.attr_or(v, "cost", -1.0), 42.0);
}

TEST(HierarchicalGraph, FindByName) {
  const HierarchicalGraph g = make_fig1();
  EXPECT_TRUE(g.find_node("Pd3").valid());
  EXPECT_FALSE(g.find_node("nope").valid());
  EXPECT_TRUE(g.find_cluster("gU2").valid());
  EXPECT_FALSE(g.find_cluster("nope").valid());
}

TEST(HierarchicalGraph, PortsAndMappings) {
  HierarchicalGraph g("g");
  const NodeId src = g.add_vertex(g.root(), "src");
  const NodeId iface = g.add_interface(g.root(), "i");
  const PortId in = g.add_port(iface, "in", PortDirection::kIn);
  const ClusterId c1 = g.add_cluster(iface, "c1");
  const NodeId a = g.add_vertex(c1, "a");
  const NodeId b = g.add_vertex(c1, "b");
  g.add_edge(a, b);
  g.map_port(in, c1, a);
  g.add_edge(src, iface, PortId{}, in);

  EXPECT_EQ(g.find_port(iface, "in"), in);
  EXPECT_FALSE(g.find_port(iface, "out").valid());
  EXPECT_EQ(g.port(in).mapping.at(c1), a);
}

// ---- flatten ----------------------------------------------------------------

TEST(Flatten, SelectsAndExpands) {
  const HierarchicalGraph g = make_fig1();
  ClusterSelection sel;
  sel.select(g, g.find_cluster("gD2"));
  sel.select(g, g.find_cluster("gU1"));
  Result<FlatGraph> flat = flatten(g, sel);
  ASSERT_TRUE(flat.ok()) << flat.error().message;
  // Active vertices: Pa, Pc, Pd2, Pu1.
  EXPECT_EQ(flat.value().vertices.size(), 4u);
  EXPECT_TRUE(flat.value().contains_vertex(g.find_node("Pd2")));
  EXPECT_FALSE(flat.value().contains_vertex(g.find_node("Pd1")));
  // The ID -> IU edge resolves to Pd2 -> Pu1.
  ASSERT_EQ(flat.value().edges.size(), 1u);
  EXPECT_EQ(flat.value().edges[0].first, g.find_node("Pd2"));
  EXPECT_EQ(flat.value().edges[0].second, g.find_node("Pu1"));
  // Both interfaces and both chosen clusters are active.
  EXPECT_EQ(flat.value().active_interfaces.size(), 2u);
  EXPECT_EQ(flat.value().active_clusters.size(), 2u);
}

TEST(Flatten, MissingSelectionFails) {
  const HierarchicalGraph g = make_fig1();
  ClusterSelection sel;
  sel.select(g, g.find_cluster("gD1"));
  // IU unselected.
  Result<FlatGraph> flat = flatten(g, sel);
  EXPECT_FALSE(flat.ok());
}

TEST(Flatten, FirstOfEachSelectsEveryInterface) {
  const HierarchicalGraph g = make_fig1();
  const ClusterSelection sel = ClusterSelection::first_of_each(g);
  Result<FlatGraph> flat = flatten(g, sel);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(flat.value().contains_vertex(g.find_node("Pd1")));
  EXPECT_TRUE(flat.value().contains_vertex(g.find_node("Pu1")));
}

TEST(Flatten, NestedInterfacesResolveTransitively) {
  HierarchicalGraph g("nested");
  const NodeId src = g.add_vertex(g.root(), "src");
  const NodeId outer = g.add_interface(g.root(), "outer");
  g.add_edge(src, outer);
  const ClusterId oc = g.add_cluster(outer, "oc");
  const NodeId inner = g.add_interface(oc, "inner");
  const ClusterId ic = g.add_cluster(inner, "ic");
  const NodeId leaf = g.add_vertex(ic, "leaf");

  ClusterSelection sel;
  sel.select(g, oc);
  sel.select(g, ic);
  Result<FlatGraph> flat = flatten(g, sel);
  ASSERT_TRUE(flat.ok()) << flat.error().message;
  ASSERT_EQ(flat.value().edges.size(), 1u);
  EXPECT_EQ(flat.value().edges[0].first, src);
  EXPECT_EQ(flat.value().edges[0].second, leaf);
}

TEST(Flatten, PortMappingDirectsEdge) {
  HierarchicalGraph g("ports");
  const NodeId src = g.add_vertex(g.root(), "src");
  const NodeId iface = g.add_interface(g.root(), "i");
  const PortId in = g.add_port(iface, "in", PortDirection::kIn);
  const ClusterId c = g.add_cluster(iface, "c");
  const NodeId a = g.add_vertex(c, "a");
  const NodeId b = g.add_vertex(c, "b");  // both are sources: ambiguous
  (void)b;
  g.map_port(in, c, a);
  g.add_edge(src, iface, PortId{}, in);

  ClusterSelection sel;
  sel.select(g, c);
  Result<FlatGraph> flat = flatten(g, sel);
  ASSERT_TRUE(flat.ok()) << flat.error().message;
  ASSERT_EQ(flat.value().edges.size(), 1u);
  EXPECT_EQ(flat.value().edges[0].second, a);
}

TEST(Flatten, AmbiguousDefaultPortFails) {
  HierarchicalGraph g("ambiguous");
  const NodeId src = g.add_vertex(g.root(), "src");
  const NodeId iface = g.add_interface(g.root(), "i");
  const ClusterId c = g.add_cluster(iface, "c");
  g.add_vertex(c, "a");
  g.add_vertex(c, "b");  // two boundary nodes, no port mapping
  g.add_edge(src, iface);

  ClusterSelection sel;
  sel.select(g, c);
  EXPECT_FALSE(flatten(g, sel).ok());
}

TEST(Flatten, SelectionOverwrite) {
  const HierarchicalGraph g = make_fig1();
  ClusterSelection sel;
  sel.select(g, g.find_cluster("gD1"));
  sel.select(g, g.find_cluster("gD3"));  // overwrites
  EXPECT_EQ(sel.selected(g.find_node("ID")), g.find_cluster("gD3"));
}

// ---- traversal ----------------------------------------------------------------

TEST(Traversal, TopologicalOrderOfCluster) {
  HierarchicalGraph g("topo");
  const NodeId a = g.add_vertex(g.root(), "a");
  const NodeId b = g.add_vertex(g.root(), "b");
  const NodeId c = g.add_vertex(g.root(), "c");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(a, c);
  const auto order = topological_order(g, g.root());
  ASSERT_TRUE(order.has_value());
  const auto pos = [&](NodeId n) {
    return std::find(order->begin(), order->end(), n) - order->begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));
}

TEST(Traversal, DetectsCycle) {
  HierarchicalGraph g("cycle");
  const NodeId a = g.add_vertex(g.root(), "a");
  const NodeId b = g.add_vertex(g.root(), "b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_FALSE(topological_order(g, g.root()).has_value());
  EXPECT_FALSE(is_acyclic(g));
}

TEST(Traversal, AcyclicHierarchy) {
  EXPECT_TRUE(is_acyclic(make_fig1()));
}

TEST(Traversal, ForEachClusterVisitsAll) {
  const HierarchicalGraph g = make_fig1();
  std::size_t count = 0;
  for_each_cluster(g, [&](ClusterId) { ++count; });
  EXPECT_EQ(count, g.cluster_count());
}

TEST(Traversal, FlatSourcesAndSinks) {
  const HierarchicalGraph g = make_fig1();
  const ClusterSelection sel = ClusterSelection::first_of_each(g);
  const FlatGraph flat = flatten(g, sel).value();
  const auto sources = flat_sources(flat);
  const auto sinks = flat_sinks(flat);
  // Pa, Pc, Pd1 have no incoming flat edges; Pa, Pc, Pu1 no outgoing.
  EXPECT_EQ(sources.size(), 3u);
  EXPECT_EQ(sinks.size(), 3u);
}

// ---- topological order against the sort-per-push reference -----------------

/// The algorithm the ready heap replaced: Kahn's algorithm that re-sorts
/// its whole ready list after every push and takes the smallest id.
std::optional<std::vector<NodeId>> reference_order(const HierarchicalGraph& g,
                                                   ClusterId cluster) {
  const Cluster& c = g.cluster(cluster);
  std::unordered_map<NodeId, std::size_t> indegree;
  for (NodeId n : c.nodes) indegree[n] = 0;
  for (EdgeId eid : c.edges) ++indegree[g.edge(eid).to];
  std::vector<NodeId> ready;
  for (NodeId n : c.nodes)
    if (indegree[n] == 0) ready.push_back(n);
  std::sort(ready.begin(), ready.end(), std::greater<>());
  std::vector<NodeId> order;
  while (!ready.empty()) {
    const NodeId n = ready.back();
    ready.pop_back();
    order.push_back(n);
    for (EdgeId eid : g.node(n).out_edges) {
      const Edge& e = g.edge(eid);
      if (--indegree[e.to] == 0) {
        ready.push_back(e.to);
        std::sort(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  if (order.size() != c.nodes.size()) return std::nullopt;
  return order;
}

std::optional<std::vector<NodeId>> reference_order(const FlatGraph& flat) {
  std::unordered_map<NodeId, std::size_t> indegree;
  std::unordered_map<NodeId, std::vector<NodeId>> succ;
  for (NodeId v : flat.vertices) indegree[v] = 0;
  for (const auto& [from, to] : flat.edges) {
    ++indegree[to];
    succ[from].push_back(to);
  }
  std::vector<NodeId> ready;
  for (NodeId v : flat.vertices)
    if (indegree[v] == 0) ready.push_back(v);
  std::sort(ready.begin(), ready.end(), std::greater<>());
  std::vector<NodeId> order;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (NodeId w : succ[v]) {
      if (--indegree[w] == 0) {
        ready.push_back(w);
        std::sort(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  if (order.size() != flat.vertices.size()) return std::nullopt;
  return order;
}

void expect_orders_match_reference(const HierarchicalGraph& g) {
  for (const Cluster& c : g.clusters()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(topological_order(g, c.id), reference_order(g, c.id));
  }
  const Result<FlatGraph> flat =
      flatten(g, ClusterSelection::first_of_each(g));
  if (flat.ok()) {
    EXPECT_EQ(topological_order(flat.value()), reference_order(flat.value()));
  }
}

TEST(TopologicalReference, ExamplesAndNestedPresetsMatch) {
  std::vector<std::pair<std::string, SpecificationGraph>> specs;
  for (const char* name : {"settop.json", "decoder.json", "nested.json"}) {
    Result<SpecificationGraph> spec =
        spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/" + name);
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    specs.emplace_back(name, std::move(spec).value());
  }
  for (const PlatformPreset preset :
       {PlatformPreset::kNestedS, PlatformPreset::kNestedM,
        PlatformPreset::kNestedXl})
    specs.emplace_back(preset_name(preset), generate_preset(preset, 1));
  for (const auto& [name, spec] : specs) {
    SCOPED_TRACE(name);
    expect_orders_match_reference(spec.problem());
    expect_orders_match_reference(spec.architecture());
  }
}

TEST(TopologicalReference, RandomWideClustersMatch) {
  Rng rng(28);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    // Nodes created in a shuffled rank order, edges only from lower to
    // higher rank: many nodes are ready at once, in no id order.  Every
    // fourth trial adds one edge back, which may close a cycle.
    HierarchicalGraph g("wide");
    const std::size_t n = 20 + rng.uniform(300);
    std::vector<NodeId> by_rank;
    for (std::size_t i = 0; i < n; ++i)
      by_rank.push_back(g.add_vertex(g.root(), "v" + std::to_string(i)));
    rng.shuffle(by_rank);
    FlatGraph flat;
    flat.vertices = g.cluster(g.root()).nodes;
    const std::size_t edges = rng.uniform(2 * n);
    for (std::size_t k = 0; k < edges; ++k) {
      std::size_t a = rng.uniform(n), b = rng.uniform(n);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      if (trial % 4 == 3 && k + 1 == edges) std::swap(a, b);
      g.add_edge(by_rank[a], by_rank[b]);
      flat.edges.emplace_back(by_rank[a], by_rank[b]);
    }
    EXPECT_EQ(topological_order(g, g.root()), reference_order(g, g.root()));
    EXPECT_EQ(topological_order(flat), reference_order(flat));
  }
}

TEST(TopologicalReference, ForeignEndpointsCountAsBefore) {
  // An edge into another cluster (SDF006) and a flat edge to a vertex the
  // graph does not list keep their old effect on the order.
  HierarchicalGraph g = make_fig1();
  const NodeId pa = g.find_node("Pa");
  g.add_edge(pa, g.find_node("Pd1"));
  for (const Cluster& c : g.clusters())
    EXPECT_EQ(topological_order(g, c.id), reference_order(g, c.id));
  FlatGraph flat;
  flat.vertices = {NodeId{std::size_t{1}}, NodeId{std::size_t{2}}};
  flat.edges = {{NodeId{std::size_t{1}}, NodeId{std::size_t{7}}},
                {NodeId{std::size_t{7}}, NodeId{std::size_t{2}}}};
  EXPECT_EQ(topological_order(flat), reference_order(flat));
}

// ---- validate -----------------------------------------------------------------

TEST(Validate, AcceptsFig1) {
  const auto issues = validate(make_fig1());
  EXPECT_TRUE(issues.empty());
}

TEST(Validate, FlagsInterfaceWithoutClusters) {
  HierarchicalGraph g("bad");
  g.add_interface(g.root(), "i");
  const auto issues = validate(g);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("no refinement"), std::string::npos);
}

TEST(Validate, FlagsCycles) {
  HierarchicalGraph g("bad");
  const NodeId a = g.add_vertex(g.root(), "a");
  const NodeId b = g.add_vertex(g.root(), "b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_FALSE(validate(g).empty());
  EXPECT_FALSE(validate_or_error(g).ok());
}

TEST(Validate, IncompletePortMappingOptional) {
  HierarchicalGraph g("ports");
  const NodeId iface = g.add_interface(g.root(), "i");
  g.add_port(iface, "in", PortDirection::kIn);
  const ClusterId c = g.add_cluster(iface, "c");
  g.add_vertex(c, "v");

  EXPECT_TRUE(validate(g).empty());  // default: mappings not required
  ValidateOptions strict;
  strict.require_complete_port_mappings = true;
  EXPECT_FALSE(validate(g, strict).empty());
}

// ---- dot ----------------------------------------------------------------------

TEST(Dot, EmitsClustersAndShapes) {
  const HierarchicalGraph g = make_fig1();
  const std::string dot = to_dot(g, DotOptions{.title = "Fig1"});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);
  EXPECT_NE(dot.find("label=\"Fig1\""), std::string::npos);
  EXPECT_NE(dot.find("Pd3"), std::string::npos);
}

}  // namespace
}  // namespace sdf
