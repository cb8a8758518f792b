// Unit tests for specification graphs, allocatable units and JSON I/O.
#include <gtest/gtest.h>

#include <algorithm>

#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_dot.hpp"
#include "spec/spec_io.hpp"
#include "spec/specification.hpp"

namespace sdf {
namespace {

TEST(SpecBuilder, BuildsSmallSpec) {
  SpecBuilder b("tiny");
  const NodeId p = b.process("p");
  const NodeId r = b.resource("r", 10.0);
  b.map(p, r, 5.0);
  SpecificationGraph spec = b.build();
  EXPECT_EQ(spec.name(), "tiny");
  EXPECT_EQ(spec.mappings().size(), 1u);
  EXPECT_EQ(spec.compiled().mappings_of(p).size(), 1u);
  EXPECT_EQ(spec.compiled().mappings_of(p)[0].latency, 5.0);
}

TEST(SpecificationGraph, UnitsCoverVerticesAndConfigurations) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const auto& units = spec.alloc_units();
  // uP, A, C1, C2 vertices + D3, U1, U2 configurations.
  EXPECT_EQ(units.size(), 7u);

  const AllocUnitId up = spec.find_unit("uP");
  ASSERT_TRUE(up.valid());
  EXPECT_FALSE(units[up.index()].is_cluster_unit());
  EXPECT_EQ(units[up.index()].cost, 50.0);
  EXPECT_FALSE(units[up.index()].is_comm);

  const AllocUnitId c1 = spec.find_unit("C1");
  ASSERT_TRUE(c1.valid());
  EXPECT_TRUE(units[c1.index()].is_comm);

  const AllocUnitId d3 = spec.find_unit("D3");
  ASSERT_TRUE(d3.valid());
  EXPECT_TRUE(units[d3.index()].is_cluster_unit());
  EXPECT_EQ(units[d3.index()].cost, 30.0);
  // Configuration tops point at the FPGA interface.
  EXPECT_EQ(units[d3.index()].top,
            spec.architecture().find_node("FPGA"));
}

TEST(SpecificationGraph, UnitOfResourceResolvesConfigLeaves) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const NodeId d3res = spec.architecture().find_node("D3.res");
  ASSERT_TRUE(d3res.valid());
  EXPECT_EQ(spec.unit_of_resource(d3res), spec.find_unit("D3"));
  const NodeId up = spec.architecture().find_node("uP");
  EXPECT_EQ(spec.unit_of_resource(up), spec.find_unit("uP"));
}

TEST(SpecificationGraph, UnitAccessorsFollowAttributeEdits) {
  // A cost or bus flag set after the universe was read reaches the next
  // read: the accessors read the compiled index, rebuilt on every mutation.
  SpecificationGraph spec = models::make_tv_decoder_spec();
  const AllocUnitId up = spec.find_unit("uP");
  const AllocUnitId d3 = spec.find_unit("D3");
  EXPECT_EQ(spec.alloc_units()[up.index()].cost, 50.0);
  EXPECT_EQ(spec.alloc_units()[d3.index()].cost, 30.0);
  EXPECT_FALSE(spec.alloc_units()[up.index()].is_comm);

  HierarchicalGraph& arch = spec.architecture();
  arch.set_attr(arch.find_node("uP"), attr::kCost, 7.0);
  EXPECT_EQ(spec.alloc_units()[up.index()].cost, 7.0);
  arch.set_attr(arch.find_cluster("D3"), attr::kCost, 3.0);
  EXPECT_EQ(spec.alloc_units()[d3.index()].cost, 3.0);
  arch.set_attr(arch.find_node("uP"), attr::kComm, 1.0);
  EXPECT_TRUE(spec.alloc_units()[up.index()].is_comm);

  AllocSet a = spec.make_alloc_set();
  a.set(up.index());
  a.set(d3.index());
  EXPECT_EQ(spec.compiled().allocation_cost(a), 7.0 + 3.0);
}

TEST(SpecificationGraph, AllocationCostSumsUnits) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("uP").index());
  a.set(spec.find_unit("C1").index());
  a.set(spec.find_unit("D3").index());
  EXPECT_EQ(spec.compiled().allocation_cost(a), 50.0 + 5.0 + 30.0);
}

TEST(SpecificationGraph, DeviceCostChargedOncePerInterface) {
  SpecBuilder b("devcost");
  const NodeId p = b.process("p");
  const NodeId dev = b.device("dev", 100.0);
  const NodeId cfg1 = b.configuration(dev, "cfg1", 10.0);
  const NodeId cfg2 = b.configuration(dev, "cfg2", 20.0);
  b.map(p, cfg1, 1.0);
  b.map(p, cfg2, 1.0);
  const SpecificationGraph spec = b.build();
  const CompiledSpec& cs = spec.compiled();

  AllocSet one = spec.make_alloc_set();
  one.set(spec.find_unit("cfg1").index());
  EXPECT_EQ(cs.allocation_cost(one), 110.0);  // device + config

  AllocSet both = one;
  both.set(spec.find_unit("cfg2").index());
  EXPECT_EQ(cs.allocation_cost(both), 130.0);  // device charged once
}

TEST(SpecificationGraph, AllocationNamesInUnitOrder) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("D3").index());
  a.set(spec.find_unit("uP").index());
  EXPECT_EQ(spec.allocation_names(a), "uP, D3");
}

TEST(SpecificationGraph, CommReachableSameDevice) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  AllocSet a = spec.make_alloc_set();
  const AllocUnitId d3 = spec.find_unit("D3");
  const AllocUnitId u1 = spec.find_unit("U1");
  a.set(d3.index());
  a.set(u1.index());
  // Same top (FPGA): reachable even without buses.
  EXPECT_TRUE(spec.compiled().comm_reachable(a, d3, u1));
}

TEST(SpecificationGraph, CommReachableViaBus) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const CompiledSpec& cs = spec.compiled();
  const AllocUnitId up = spec.find_unit("uP");
  const AllocUnitId d3 = spec.find_unit("D3");
  const AllocUnitId asic = spec.find_unit("A");

  AllocSet without_bus = spec.make_alloc_set();
  without_bus.set(up.index());
  without_bus.set(d3.index());
  EXPECT_FALSE(cs.comm_reachable(without_bus, up, d3));

  AllocSet with_bus = without_bus;
  with_bus.set(spec.find_unit("C1").index());
  EXPECT_TRUE(cs.comm_reachable(with_bus, up, d3));

  // C1 does not connect the ASIC with the FPGA (the paper's infeasible
  // example relies on exactly this).
  AllocSet asic_fpga = spec.make_alloc_set();
  asic_fpga.set(asic.index());
  asic_fpga.set(d3.index());
  asic_fpga.set(spec.find_unit("C1").index());
  asic_fpga.set(spec.find_unit("C2").index());
  EXPECT_FALSE(cs.comm_reachable(asic_fpga, asic, d3));
}

TEST(SpecificationGraph, ReachableUnitsFollowMappings) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const NodeId pu1 = spec.problem().find_node("Pu1");
  const auto units = spec.compiled().reachable_unit_list(pu1);
  // Pu1 maps to uP, A and the U1 configuration.
  EXPECT_EQ(units.size(), 3u);
  EXPECT_NE(std::find(units.begin(), units.end(), spec.find_unit("uP")),
            units.end());
  EXPECT_NE(std::find(units.begin(), units.end(), spec.find_unit("U1")),
            units.end());
}

TEST(SpecificationGraph, ValidateAcceptsPaperModels) {
  EXPECT_TRUE(models::make_tv_decoder_spec().validate().ok());
  EXPECT_TRUE(models::make_settop_spec().validate().ok());
}

TEST(SettopModel, UniverseAndStructure) {
  const SpecificationGraph spec = models::make_settop_spec();
  // uP1, uP2, A1..A3, C1..C5 vertices + G1, U2, D3 configurations.
  EXPECT_EQ(spec.alloc_units().size(), 13u);
  // 15 leaf processes (Fig. 3).
  EXPECT_EQ(spec.problem().leaves().size(), 15u);
  // Clusters: root + gI,gG,gD + gG1..3 + gD1..3 + gU1,2.
  EXPECT_EQ(spec.problem().cluster_count(), 12u);
  // Table 1 has 47 mapping entries.
  EXPECT_EQ(spec.mappings().size(), 47u);
}

TEST(SettopModel, Table1SpotChecks) {
  const SpecificationGraph spec = models::make_settop_spec();
  const HierarchicalGraph& p = spec.problem();
  auto latency = [&](const char* proc, const char* res) -> double {
    const NodeId pn = p.find_node(proc);
    for (const CompiledMapping& m : spec.compiled().mappings_of(pn)) {
      if (spec.alloc_units()[spec.unit_of_resource(m.resource).index()].name ==
          res)
        return m.latency;
    }
    return -1.0;
  };
  EXPECT_EQ(latency("Pg1", "uP2"), 95.0);
  EXPECT_EQ(latency("Pd", "uP2"), 90.0);
  EXPECT_EQ(latency("Pg1", "uP1"), 75.0);
  EXPECT_EQ(latency("Pd", "uP1"), 70.0);
  EXPECT_EQ(latency("Pd1", "uP2"), 95.0);
  EXPECT_EQ(latency("Pu1", "uP2"), 45.0);
  EXPECT_EQ(latency("Pd3", "D3"), 63.0);
  EXPECT_EQ(latency("Pu2", "U2"), 59.0);
  EXPECT_EQ(latency("Pg1", "G1"), 20.0);
  // Absent mappings (Table 1 dashes).
  EXPECT_EQ(latency("Pg2", "uP1"), -1.0);
  EXPECT_EQ(latency("Pd3", "uP2"), -1.0);
  EXPECT_EQ(latency("Pf", "A1"), -1.0);
}

TEST(SettopModel, TimingAnnotations) {
  const SpecificationGraph spec = models::make_settop_spec();
  const HierarchicalGraph& p = spec.problem();
  EXPECT_EQ(p.attr_or(p.find_node("Pd"), attr::kPeriod, 0.0), 240.0);
  EXPECT_EQ(p.attr_or(p.find_node("Pu1"), attr::kPeriod, 0.0), 300.0);
  EXPECT_EQ(p.attr_or(p.find_node("Pu2"), attr::kPeriod, 0.0), 300.0);
  // Negligible processes.
  EXPECT_EQ(p.attr_or(p.find_node("Pa"), attr::kTimingWeight, 1.0), 0.0);
  EXPECT_EQ(p.attr_or(p.find_node("PcD"), attr::kTimingWeight, 1.0), 0.0);
  EXPECT_EQ(p.attr_or(p.find_node("PcG"), attr::kTimingWeight, 1.0), 0.0);
  // Internet browser is unconstrained.
  EXPECT_EQ(p.attr_or(p.find_node("Pf"), attr::kPeriod, 0.0), 0.0);
}

TEST(SettopModel, CalibratedCosts) {
  const SpecificationGraph spec = models::make_settop_spec();
  auto cost = [&](const char* name) {
    return spec.alloc_units()[spec.find_unit(name).index()].cost;
  };
  // Fixed by §5's Pareto table.
  EXPECT_EQ(cost("uP2"), 100.0);
  EXPECT_EQ(cost("uP1"), 120.0);
  EXPECT_EQ(cost("G1") + cost("U2") + cost("C1"), 130.0);
  EXPECT_EQ(cost("D3"), 60.0);
  EXPECT_EQ(cost("A1") + cost("C2"), 260.0);
}

// ---- combined DOT export ---------------------------------------------------------

TEST(SpecDot, RendersBothGraphsAndMappings) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const std::string dot = to_dot(spec, SpecDotOptions{.title = "Fig. 2"});
  EXPECT_NE(dot.find("problem graph G_P"), std::string::npos);
  EXPECT_NE(dot.find("architecture graph G_A"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);
  EXPECT_NE(dot.find("label=\"Fig. 2\""), std::string::npos);
  // Costs annotated on architecture nodes; latencies on mapping edges.
  EXPECT_NE(dot.find("$50"), std::string::npos);   // uP cost
  EXPECT_NE(dot.find("\"40\""), std::string::npos);  // Pu1 -> uP latency
}

TEST(SpecDot, HighlightMarksAllocatedUnits) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  AllocSet alloc = spec.make_alloc_set();
  alloc.set(spec.find_unit("uP").index());
  SpecDotOptions options;
  options.highlight = &alloc;
  const std::string dot = to_dot(spec, options);
  EXPECT_NE(dot.find("fillcolor=lightgrey"), std::string::npos);
  // Without highlight no fill appears.
  EXPECT_EQ(to_dot(spec).find("fillcolor"), std::string::npos);
}

TEST(SpecDot, LatenciesOptional) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  SpecDotOptions options;
  options.show_latencies = false;
  EXPECT_EQ(to_dot(spec, options).find("fontsize=9"), std::string::npos);
}

// ---- JSON I/O -----------------------------------------------------------------

TEST(SpecIo, RoundTripsTvDecoder) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  Result<std::string> text = spec_to_string(spec);
  ASSERT_TRUE(text.ok()) << text.error().message;

  Result<SpecificationGraph> back = spec_from_string(text.value());
  ASSERT_TRUE(back.ok()) << back.error().message;

  const SpecificationGraph& b = back.value();
  EXPECT_EQ(b.problem().node_count(), spec.problem().node_count());
  EXPECT_EQ(b.problem().cluster_count(), spec.problem().cluster_count());
  EXPECT_EQ(b.architecture().node_count(), spec.architecture().node_count());
  EXPECT_EQ(b.mappings().size(), spec.mappings().size());
  EXPECT_EQ(b.alloc_units().size(), spec.alloc_units().size());

  // Attributes survive.
  EXPECT_EQ(b.architecture().attr_or(b.architecture().find_node("uP"),
                                     attr::kCost, 0.0),
            50.0);
  EXPECT_EQ(b.problem().attr_or(b.problem().find_node("Pu1"), attr::kPeriod,
                                0.0),
            300.0);

  // Serialization is stable (idempotent round-trip).
  Result<std::string> again = spec_to_string(b);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(text.value(), again.value());
}

TEST(SpecIo, RoundTripsSettop) {
  const SpecificationGraph spec = models::make_settop_spec();
  Result<std::string> text = spec_to_string(spec);
  ASSERT_TRUE(text.ok()) << text.error().message;
  Result<SpecificationGraph> back = spec_from_string(text.value());
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().mappings().size(), 47u);
  EXPECT_EQ(back.value().alloc_units().size(), 13u);
}

TEST(SpecIo, RejectsMalformedDocuments) {
  EXPECT_FALSE(spec_from_string("not json").ok());
  EXPECT_FALSE(spec_from_string("{}").ok());  // missing graphs
  EXPECT_FALSE(spec_from_string(R"({"problem":{"root":{}}})").ok());
  // Unknown mapping reference.
  const char* bad_mapping = R"({
    "problem": {"root": {"nodes": [{"name": "p"}]}},
    "architecture": {"root": {"nodes": [{"name": "r"}]}},
    "mappings": [{"process": "nope", "resource": "r", "latency": 1}]
  })";
  EXPECT_FALSE(spec_from_string(bad_mapping).ok());
}

TEST(SpecIo, StructuralErrorsReported) {
  // Edge referencing a node of another cluster.
  const char* cross_edge = R"({
    "problem": {"root": {"nodes": [
      {"name": "a"},
      {"name": "i", "kind": "interface", "clusters": [
        {"name": "c", "nodes": [{"name": "inner"}]}
      ]}
    ], "edges": [{"from": "a", "to": "inner"}]}},
    "architecture": {"root": {"nodes": [{"name": "cpu"}]}},
    "mappings": []
  })";
  const auto r1 = spec_from_string(cross_edge);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.error().message.find("outside its cluster"),
            std::string::npos);

  // Cyclic problem graph: rejected by validation.
  const char* cyclic = R"({
    "problem": {"root": {"nodes": [{"name": "a"}, {"name": "b"}],
                "edges": [{"from": "a", "to": "b"},
                          {"from": "b", "to": "a"}]}},
    "architecture": {"root": {"nodes": [{"name": "cpu"}]}},
    "mappings": [{"process": "a", "resource": "cpu", "latency": 1},
                 {"process": "b", "resource": "cpu", "latency": 1}]
  })";
  const auto r2 = spec_from_string(cyclic);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.error().message.find("cycle"), std::string::npos);

  // Unknown port referenced by an edge.
  const char* bad_port = R"({
    "problem": {"root": {"nodes": [
      {"name": "a"},
      {"name": "i", "kind": "interface", "clusters": [
        {"name": "c", "nodes": [{"name": "x"}]}
      ]}
    ], "edges": [{"from": "a", "to": "i", "dst_port": "missing"}]}},
    "architecture": {"root": {"nodes": [{"name": "cpu"}]}},
    "mappings": []
  })";
  const auto r3 = spec_from_string(bad_port);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.error().message.find("unknown dst_port"), std::string::npos);

  // Unknown port-mapping target.
  const char* bad_mapping_target = R"({
    "problem": {"root": {"nodes": [
      {"name": "i", "kind": "interface",
       "ports": [{"name": "in", "direction": "in",
                  "mapping": {"c": "ghost"}}],
       "clusters": [{"name": "c", "nodes": [{"name": "x"}]}]}
    ]}},
    "architecture": {"root": {"nodes": [{"name": "cpu"}]}},
    "mappings": []
  })";
  const auto r4 = spec_from_string(bad_mapping_target);
  ASSERT_FALSE(r4.ok());
  EXPECT_NE(r4.error().message.find("unknown node 'ghost'"),
            std::string::npos);
}

TEST(SpecIo, ParsesMinimalSpec) {
  const char* doc = R"({
    "name": "mini",
    "problem": {"root": {"nodes": [
      {"name": "a"}, {"name": "b"},
      {"name": "i", "kind": "interface", "clusters": [
        {"name": "c1", "nodes": [{"name": "x"}]},
        {"name": "c2", "nodes": [{"name": "y"}]}
      ]}
    ], "edges": [{"from": "a", "to": "b"}]}},
    "architecture": {"root": {"nodes": [
      {"name": "cpu", "attrs": {"cost": 25}}
    ]}},
    "mappings": [
      {"process": "a", "resource": "cpu", "latency": 1},
      {"process": "b", "resource": "cpu", "latency": 2},
      {"process": "x", "resource": "cpu", "latency": 3},
      {"process": "y", "resource": "cpu", "latency": 4}
    ]
  })";
  Result<SpecificationGraph> spec = spec_from_string(doc);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_EQ(spec.value().name(), "mini");
  EXPECT_EQ(spec.value().problem().leaves().size(), 4u);
  EXPECT_EQ(spec.value().problem().all_interfaces().size(), 1u);
  EXPECT_EQ(spec.value().alloc_units().size(), 1u);
  EXPECT_EQ(spec.value().alloc_units()[0].cost, 25.0);
}

TEST(SpecIo, RoundTripsPortMappings) {
  SpecBuilder b("ports");
  const NodeId src = b.process("src");
  HierarchicalGraph& p = b.spec().problem();
  const NodeId iface = p.add_interface(p.root(), "i");
  const PortId in = p.add_port(iface, "in", PortDirection::kIn);
  const ClusterId c = p.add_cluster(iface, "c");
  const NodeId x = p.add_vertex(c, "x");
  const NodeId y = p.add_vertex(c, "y");
  p.add_edge(x, y);
  p.map_port(in, c, x);
  p.add_edge(src, iface, PortId{}, in);
  const NodeId cpu = b.resource("cpu", 1.0);
  for (NodeId n : {src, x, y}) b.map(n, cpu, 1.0);
  const SpecificationGraph spec = b.build();

  Result<std::string> text = spec_to_string(spec);
  ASSERT_TRUE(text.ok()) << text.error().message;
  Result<SpecificationGraph> back = spec_from_string(text.value());
  ASSERT_TRUE(back.ok()) << back.error().message;

  const HierarchicalGraph& bp = back.value().problem();
  const NodeId biface = bp.find_node("i");
  const PortId bport = bp.find_port(biface, "in");
  ASSERT_TRUE(bport.valid());
  EXPECT_EQ(bp.port(bport).mapping.size(), 1u);
  EXPECT_EQ(bp.node(bp.port(bport).mapping.begin()->second).name, "x");
}

TEST(SpecIo, EdgeAttributesRoundTrip) {
  SpecBuilder b("edgeattrs");
  const NodeId p1 = b.process("p1");
  const NodeId p2 = b.process("p2");
  const EdgeId e = b.depends(p1, p2);
  b.spec().problem().set_attr(e, "bandwidth", 128.0);
  const NodeId cpu = b.resource("cpu", 1.0);
  b.map(p1, cpu, 1.0);
  b.map(p2, cpu, 1.0);
  const SpecificationGraph spec = b.build();

  Result<std::string> text = spec_to_string(spec);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("bandwidth"), std::string::npos);
  Result<SpecificationGraph> back = spec_from_string(text.value());
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_EQ(back.value().problem().edge_count(), 1u);
  EXPECT_EQ(back.value().problem().attr_or(EdgeId{0u}, "bandwidth", 0.0),
            128.0);
}

TEST(SpecIo, DuplicateNamesRejectedOnSave) {
  SpecBuilder b("dups");
  b.process("same");
  b.process("same");
  const NodeId r = b.resource("cpu", 1.0);
  (void)r;
  EXPECT_FALSE(spec_to_string(b.spec()).ok());
}

}  // namespace
}  // namespace sdf
