// Contract tests.  Programming errors (bad ids, size mismatches) abort via
// SDF_CHECK — death tests fork a child per EXPECT_DEATH.  Data-shaped
// violations that can arrive from user JSON are *not* fatal: construction
// records them and validate()/lint reports them.
#include <gtest/gtest.h>

#include "bind/solver.hpp"
#include "graph/hierarchical_graph.hpp"
#include "graph/validate.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "util/dyn_bitset.hpp"
#include "util/table.hpp"

namespace sdf {
namespace {

using ContractDeathTest = ::testing::Test;

/// True iff validating `g` yields an issue tagged with `rule`.
bool validate_flags(const HierarchicalGraph& g, const char* rule) {
  for (const ValidationIssue& issue : validate(g))
    if (issue.rule == rule) return true;
  return false;
}

// Data-shaped structural violations (reachable from user-supplied JSON) are
// recorded permissively at construction and reported by validate()/lint
// rather than aborting the process.

TEST(ContractTest, EdgeAcrossClustersIsValidationIssue) {
  HierarchicalGraph g("g");
  const NodeId top = g.add_vertex(g.root(), "top");
  const NodeId iface = g.add_interface(g.root(), "i");
  const ClusterId c = g.add_cluster(iface, "c");
  const NodeId inner = g.add_vertex(c, "inner");
  g.add_edge(top, inner);
  EXPECT_TRUE(validate_flags(g, kRuleCrossHierarchyEdge));
}

TEST(ContractTest, ClusterOnVertexIsValidationIssue) {
  HierarchicalGraph g("g");
  const NodeId v = g.add_vertex(g.root(), "v");
  g.add_cluster(v, "c");
  EXPECT_TRUE(validate_flags(g, kRuleVertexWithClusters));
}

TEST(ContractTest, PortOnVertexIsValidationIssue) {
  HierarchicalGraph g("g");
  const NodeId v = g.add_vertex(g.root(), "v");
  g.add_port(v, "p", PortDirection::kIn);
  EXPECT_TRUE(validate_flags(g, kRuleVertexWithPorts));
}

TEST(ContractTest, PortMappingOutsideClusterIsValidationIssue) {
  HierarchicalGraph g("g");
  const NodeId iface = g.add_interface(g.root(), "i");
  const PortId port = g.add_port(iface, "in", PortDirection::kIn);
  const ClusterId c = g.add_cluster(iface, "c");
  g.add_vertex(c, "inside");
  const NodeId outside = g.add_vertex(g.root(), "outside");
  g.map_port(port, c, outside);
  EXPECT_TRUE(validate_flags(g, kRuleDanglingPortMapping));
}

TEST(ContractTest, MappingFromInterfaceIsValidationError) {
  SpecBuilder b("bad");
  const NodeId iface = b.interface("i");
  const ClusterId c = b.alternative(iface, "c");
  b.process("p", c);
  const NodeId r = b.resource("cpu", 1.0);
  b.map(iface, r, 1.0);
  const Status s = b.spec().validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("non-leaf"), std::string::npos);
}

TEST(ContractDeathTest, BitsetSizeMismatchAborts) {
  DynBitset a(10), b(20);
  EXPECT_DEATH(a |= b, "size mismatch");
}

TEST(ContractDeathTest, BitsetShrinkAborts) {
  DynBitset a(10);
  EXPECT_DEATH(a.resize(5), "cannot shrink");
}

TEST(ContractDeathTest, TableRowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only one"}), "row width mismatch");
}

TEST(ContractDeathTest, BadIdAccessAborts) {
  HierarchicalGraph g("g");
  EXPECT_DEATH(g.node(NodeId{42u}), "bad NodeId");
  EXPECT_DEATH(g.cluster(ClusterId{42u}), "bad ClusterId");
}

// ---- deep architecture nesting (non-death structural contract) ---------------

TEST(DeepArchitecture, LeavesResolveToOutermostCluster) {
  // An FPGA whose configuration itself contains a reconfigurable region:
  // allocation granularity stays at the outermost configuration, and every
  // nested leaf resolves to it.
  SpecBuilder b("nested_arch");
  const NodeId p = b.process("p");
  HierarchicalGraph& a = b.spec().architecture();
  const NodeId fpga = a.add_interface(a.root(), "fpga");
  a.set_attr(fpga, attr::kCost, 5.0);
  const ClusterId cfg = a.add_cluster(fpga, "cfg_outer");
  a.set_attr(cfg, attr::kCost, 40.0);
  const NodeId region = a.add_interface(cfg, "region");
  const ClusterId inner = a.add_cluster(region, "cfg_inner");
  const NodeId leaf = a.add_vertex(inner, "engine");
  const NodeId cpu = b.resource("cpu", 30.0);
  b.map(p, leaf, 7.0);
  b.map(p, cpu, 9.0);
  const SpecificationGraph spec = b.build();

  // Units: cpu (vertex) + cfg_outer (outermost cluster only).
  ASSERT_EQ(spec.alloc_units().size(), 2u);
  const AllocUnitId outer = spec.find_unit("cfg_outer");
  ASSERT_TRUE(outer.valid());
  EXPECT_FALSE(spec.find_unit("cfg_inner").valid());
  EXPECT_EQ(spec.unit_of_resource(leaf), outer);

  // Allocating the configuration charges the device interface once.
  AllocSet alloc = spec.make_alloc_set();
  alloc.set(outer.index());
  EXPECT_EQ(spec.compiled().allocation_cost(alloc), 45.0);
}

TEST(DeepArchitecture, TwoReconfigurableDevicesAreIndependent) {
  // Two FPGAs: configurations of different devices may be active in the
  // same activation; configurations of the same device may not.
  SpecBuilder b("two_fpgas");
  const NodeId p1 = b.process("p1");
  const NodeId p2 = b.process("p2");
  b.depends(p1, p2);
  const NodeId cpu = b.resource("cpu", 10.0);
  (void)cpu;
  const NodeId fpga_a = b.device("fpgaA");
  const NodeId fpga_b = b.device("fpgaB");
  const NodeId a1 = b.configuration(fpga_a, "a1", 5.0);
  const NodeId a2 = b.configuration(fpga_a, "a2", 5.0);
  const NodeId b1 = b.configuration(fpga_b, "b1", 5.0);
  b.bus("bus", 1.0, {fpga_a, fpga_b});
  b.map(p1, a1, 1.0);
  b.map(p1, a2, 2.0);
  b.map(p2, b1, 1.0);
  b.map(p2, a2, 3.0);
  const SpecificationGraph spec = b.build();
  const CompiledSpec& cs = spec.compiled();

  AllocSet cross = spec.make_alloc_set();
  cross.set(spec.find_unit("a1").index());
  cross.set(spec.find_unit("b1").index());
  cross.set(spec.find_unit("bus").index());
  // p1 on fpgaA/a1, p2 on fpgaB/b1: two devices, fine.
  EXPECT_TRUE(solve_binding(cs, cross, Eca{}).has_value());

  AllocSet same = spec.make_alloc_set();
  same.set(spec.find_unit("a1").index());
  same.set(spec.find_unit("a2").index());
  // p1 needs a1 or a2, p2 needs a2; a1+a2 simultaneously is ambiguous, but
  // both processes CAN share configuration a2.
  const auto binding = solve_binding(cs, same, Eca{});
  ASSERT_TRUE(binding.has_value());
  for (const BindingAssignment& a : binding->assignments())
    EXPECT_EQ(spec.alloc_units()[a.unit.index()].name, "a2");
}

}  // namespace
}  // namespace sdf
