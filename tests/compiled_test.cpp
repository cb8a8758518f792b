// CompiledSpec correctness: every query of the compiled index must agree
// with a naive implementation computed straight from the raw
// SpecificationGraph data, across generated specs and seeds; and the
// refactor must not move the EXPLORE results of the paper examples by a
// single bit (same Pareto front, same pruning statistics).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "graph/flatten.hpp"
#include "spec/attributes.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

SpecificationGraph make_spec(std::uint64_t seed) {
  GeneratorParams params;
  params.seed = seed;
  params.applications = 2 + seed % 3;
  params.accelerators = 1 + seed % 2;
  params.fpga_configs = 1 + seed % 2;
  return generate_spec(params);
}

AllocSet random_alloc(const SpecificationGraph& spec, Rng& rng,
                      double density) {
  AllocSet a = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i)
    if (rng.chance(density)) a.set(i);
  return a;
}

// ---- naive reference implementations (linear scans of the raw spec) ---------

/// The unit universe by a plain walk of the architecture graph: one unit per
/// top-level vertex in node order, then one per outermost refinement
/// cluster in cluster order, and the unit owning each architecture leaf.
struct ReferenceUniverse {
  std::vector<AllocUnit> units;
  std::vector<AllocUnitId> unit_of;  // by architecture NodeId
};

/// The outermost cluster enclosing `node` below the root; invalid for a
/// top-level node.  `top` receives the top-level node above it.
ClusterId outermost_cluster(const HierarchicalGraph& arch, NodeId node,
                            NodeId* top) {
  ClusterId outermost;
  NodeId cur = node;
  while (!arch.cluster(arch.node(cur).parent).is_root()) {
    outermost = arch.node(cur).parent;
    cur = arch.cluster(outermost).parent;
  }
  if (top != nullptr) *top = cur;
  return outermost;
}

ReferenceUniverse reference_universe(const SpecificationGraph& spec) {
  const HierarchicalGraph& arch = spec.architecture();
  ReferenceUniverse ref;
  for (const NodeId nid : arch.cluster(arch.root()).nodes) {
    const Node& n = arch.node(nid);
    if (n.is_interface()) continue;
    AllocUnit& u = ref.units.emplace_back();
    u.id = AllocUnitId{ref.units.size() - 1};
    u.name = n.name;
    u.vertex = nid;
    u.cost = arch.attr_or(nid, attr::kCost, 0.0);
    u.is_comm = arch.attr_or(nid, attr::kComm, 0.0) != 0.0;
    u.top = nid;
  }
  for (const Cluster& c : arch.clusters()) {
    if (c.is_root()) continue;
    NodeId top;
    if (outermost_cluster(arch, c.parent, &top).valid()) continue;
    AllocUnit& u = ref.units.emplace_back();
    u.id = AllocUnitId{ref.units.size() - 1};
    u.name = c.name;
    u.cluster = c.id;
    u.cost = arch.attr_or(c.id, attr::kCost, 0.0);
    u.top = top;
  }
  // A leaf belongs to its top-level vertex's unit or to the unit of the
  // outermost cluster enclosing it; interfaces belong to no unit.
  ref.unit_of.assign(arch.node_count(), AllocUnitId{});
  for (const Node& n : arch.nodes()) {
    if (n.is_interface()) continue;
    const ClusterId outer = outermost_cluster(arch, n.id, nullptr);
    for (const AllocUnit& u : ref.units)
      if (outer.valid() ? u.cluster == outer : u.vertex == n.id)
        ref.unit_of[n.id.index()] = u.id;
  }
  return ref;
}

void expect_units_match_reference(const SpecificationGraph& spec) {
  const ReferenceUniverse ref = reference_universe(spec);
  const CompiledSpec& cs = spec.compiled();
  EXPECT_EQ(&spec.alloc_units(), &cs.units());
  ASSERT_EQ(cs.unit_count(), ref.units.size());
  for (std::size_t i = 0; i < ref.units.size(); ++i) {
    const AllocUnit& got = cs.units()[i];
    const AllocUnit& want = ref.units[i];
    SCOPED_TRACE("unit " + want.name);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.is_comm, want.is_comm);
    EXPECT_EQ(got.top, want.top);
    EXPECT_EQ(got.vertex, want.vertex);
    EXPECT_EQ(got.cluster, want.cluster);
    const auto first = std::find_if(
        ref.units.begin(), ref.units.end(),
        [&](const AllocUnit& u) { return u.name == want.name; });
    EXPECT_EQ(spec.find_unit(want.name), first->id);
  }
  for (const Node& n : spec.architecture().nodes()) {
    EXPECT_EQ(cs.unit_of_resource(n.id), ref.unit_of[n.id.index()]) << n.name;
    EXPECT_EQ(spec.unit_of_resource(n.id), ref.unit_of[n.id.index()])
        << n.name;
  }
  EXPECT_FALSE(spec.find_unit("no such unit").valid());
}

std::vector<MappingEdge> naive_mappings_of(const SpecificationGraph& spec,
                                           NodeId process) {
  std::vector<MappingEdge> out;
  for (const MappingEdge& m : spec.mappings())
    if (m.process == process) out.push_back(m);
  return out;
}

std::vector<AllocUnitId> naive_reachable_units(const SpecificationGraph& spec,
                                               const ReferenceUniverse& ref,
                                               NodeId process) {
  std::vector<AllocUnitId> out;
  for (const MappingEdge& m : spec.mappings()) {
    if (m.process != process) continue;
    const AllocUnitId u = ref.unit_of[m.resource.index()];
    if (u.valid() && std::find(out.begin(), out.end(), u) == out.end())
      out.push_back(u);
  }
  return out;
}

double naive_allocation_cost(const SpecificationGraph& spec,
                             const ReferenceUniverse& ref,
                             const AllocSet& alloc) {
  const std::vector<AllocUnit>& units = ref.units;
  const HierarchicalGraph& arch = spec.architecture();
  double cost = 0.0;
  DynBitset charged(arch.node_count());
  alloc.for_each([&](std::size_t i) {
    const AllocUnit& u = units[i];
    cost += u.cost;
    if (u.is_cluster_unit() && !charged.test(u.top.index())) {
      charged.set(u.top.index());
      cost += arch.attr_or(u.top, attr::kCost, 0.0);
    }
  });
  return cost;
}

bool tops_adjacent(const HierarchicalGraph& arch, NodeId a, NodeId b) {
  for (const Edge& e : arch.edges())
    if ((e.from == a && e.to == b) || (e.from == b && e.to == a)) return true;
  return false;
}

bool naive_comm_reachable(const SpecificationGraph& spec,
                          const ReferenceUniverse& ref, const AllocSet& alloc,
                          AllocUnitId a, AllocUnitId b) {
  const std::vector<AllocUnit>& units = ref.units;
  const HierarchicalGraph& arch = spec.architecture();
  const NodeId ta = units[a.index()].top;
  const NodeId tb = units[b.index()].top;
  if (ta == tb || tops_adjacent(arch, ta, tb)) return true;
  bool reachable = false;
  alloc.for_each([&](std::size_t i) {
    const AllocUnit& c = units[i];
    if (!c.is_comm) return;
    if (tops_adjacent(arch, c.top, ta) && tops_adjacent(arch, c.top, tb))
      reachable = true;
  });
  return reachable;
}

/// Activatability from its definition: every leaf of `cluster` reaches an
/// allocated unit, and every interface has an activatable refinement.
bool naive_activatable(const SpecificationGraph& spec,
                       const ReferenceUniverse& ref, const AllocSet& alloc,
                       ClusterId cluster) {
  const HierarchicalGraph& p = spec.problem();
  for (const NodeId nid : p.cluster(cluster).nodes) {
    bool ok = false;
    if (p.node(nid).is_interface()) {
      for (const ClusterId sub : p.node(nid).clusters)
        ok = ok || naive_activatable(spec, ref, alloc, sub);
    } else {
      for (const AllocUnitId u : naive_reachable_units(spec, ref, nid))
        ok = ok || alloc.test(u.index());
    }
    if (!ok) return false;
  }
  return true;
}

class CompiledSweep : public ::testing::TestWithParam<std::uint64_t> {};

// ---- unit universe ----------------------------------------------------------

TEST_P(CompiledSweep, UnitsMatchReferenceWalk) {
  expect_units_match_reference(make_spec(GetParam()));
}

TEST(CompiledUnits, MatchReferenceWalkOnHandBuiltArchitectures) {
  expect_units_match_reference(models::make_settop_spec());
  expect_units_match_reference(models::make_tv_decoder_spec());

  // An FPGA configuration that itself holds a reconfigurable region, next
  // to a second device and a bus: only outermost clusters are units.
  SpecBuilder b("nested_arch");
  const NodeId p = b.process("p");
  HierarchicalGraph& a = b.spec().architecture();
  const NodeId fpga = a.add_interface(a.root(), "fpga");
  a.set_attr(fpga, attr::kCost, 5.0);
  const ClusterId outer = a.add_cluster(fpga, "cfg_outer");
  a.set_attr(outer, attr::kCost, 40.0);
  const NodeId region = a.add_interface(outer, "region");
  const NodeId engine = a.add_vertex(a.add_cluster(region, "inner"), "eng");
  const NodeId cpu = b.resource("cpu", 30.0);
  const NodeId dev = b.device("dev", 2.0);
  const NodeId cfg = b.configuration(dev, "cfg", 3.0);
  b.bus("bus", 1.0, {cpu, fpga, dev});
  b.map(p, engine, 7.0);
  b.map(p, cpu, 9.0);
  b.map(p, cfg, 4.0);
  expect_units_match_reference(b.build());
}

// ---- mapping-edge queries ---------------------------------------------------

TEST_P(CompiledSweep, MappingsMatchNaiveScan) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const ReferenceUniverse ref = reference_universe(spec);
  for (const Node& n : spec.problem().nodes()) {
    const std::vector<MappingEdge> naive = naive_mappings_of(spec, n.id);
    const auto compiled = cs.mappings_of(n.id);
    ASSERT_EQ(naive.size(), compiled.size());
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].resource, compiled[i].resource);
      EXPECT_EQ(naive[i].latency, compiled[i].latency);
      EXPECT_EQ(ref.unit_of[naive[i].resource.index()], compiled[i].unit);
    }
  }
}

TEST_P(CompiledSweep, ReachableUnitsMatchNaiveScan) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const ReferenceUniverse ref = reference_universe(spec);
  for (const Node& n : spec.problem().nodes()) {
    const std::vector<AllocUnitId> naive =
        naive_reachable_units(spec, ref, n.id);
    const auto list = cs.reachable_unit_list(n.id);
    ASSERT_EQ(naive.size(), list.size());
    const DynBitset& bits = cs.reachable_units(n.id);
    EXPECT_EQ(bits.count(), naive.size());
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i], list[i]);  // first-seen order preserved
      EXPECT_TRUE(bits.test(naive[i].index()));
    }
  }
}

TEST_P(CompiledSweep, ProcessesOnInvertsReachability) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const ReferenceUniverse ref = reference_universe(spec);
  for (std::size_t u = 0; u < cs.unit_count(); ++u) {
    std::vector<NodeId> naive;
    for (const Node& n : spec.problem().nodes()) {
      const std::vector<AllocUnitId> reach =
          naive_reachable_units(spec, ref, n.id);
      if (std::find(reach.begin(), reach.end(), AllocUnitId{u}) != reach.end())
        naive.push_back(n.id);
    }
    const auto compiled = cs.processes_on(AllocUnitId{u});
    ASSERT_EQ(naive.size(), compiled.size());
    for (std::size_t i = 0; i < naive.size(); ++i)
      EXPECT_EQ(naive[i], compiled[i]);
    EXPECT_EQ(!naive.empty(), cs.mappable_units().test(u));
  }
}

// ---- dense attributes -------------------------------------------------------

TEST_P(CompiledSweep, DenseAttributesMatchAttrLookups) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();
  for (const Node& n : p.nodes()) {
    EXPECT_EQ(cs.period(n.id), p.attr_or(n.id, attr::kPeriod, 0.0));
    EXPECT_EQ(cs.timing_weight(n.id),
              p.attr_or(n.id, attr::kTimingWeight, 1.0));
    EXPECT_EQ(cs.footprint(n.id), p.attr_or(n.id, attr::kFootprint, 0.0));
    const double period = cs.period(n.id);
    const double weight = cs.timing_weight(n.id);
    EXPECT_EQ(cs.demand(n.id),
              period > 0.0 && weight > 0.0 ? weight / period : 0.0);
  }
  const HierarchicalGraph& arch = spec.architecture();
  for (const AllocUnit& u : cs.units()) {
    const double expected =
        u.is_cluster_unit() ? arch.attr_or(u.cluster, attr::kCapacity, 0.0)
                            : arch.attr_or(u.vertex, attr::kCapacity, 0.0);
    EXPECT_EQ(cs.unit_capacity(u.id), expected);
  }
}

// ---- allocation cost and communication --------------------------------------

TEST_P(CompiledSweep, AllocationCostBitIdenticalToNaiveSum) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const ReferenceUniverse ref = reference_universe(spec);
  Rng rng(GetParam() * 131 + 1);
  for (int trial = 0; trial < 24; ++trial) {
    const AllocSet a = random_alloc(spec, rng, rng.uniform_double(0.1, 0.9));
    EXPECT_EQ(cs.allocation_cost(a), naive_allocation_cost(spec, ref, a));
  }
}

TEST_P(CompiledSweep, CommReachableMatchesNaiveAdjacencyScan) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const ReferenceUniverse ref = reference_universe(spec);
  Rng rng(GetParam() * 57 + 11);
  for (int trial = 0; trial < 6; ++trial) {
    const AllocSet a = random_alloc(spec, rng, 0.5);
    for (std::size_t i = 0; i < cs.unit_count(); ++i)
      for (std::size_t j = 0; j < cs.unit_count(); ++j) {
        const AllocUnitId ui{i}, uj{j};
        EXPECT_EQ(cs.comm_reachable(a, ui, uj),
                  naive_comm_reachable(spec, ref, a, ui, uj))
            << cs.unit(ui).name << " <-> " << cs.unit(uj).name;
      }
  }
}

// ---- flatten cache ----------------------------------------------------------

TEST_P(CompiledSweep, FlatEntriesMatchDirectFlatten) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();
  Rng rng(GetParam() * 23 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    ClusterSelection sel;
    for (NodeId iface : p.all_interfaces()) {
      const auto& clusters = p.node(iface).clusters;
      if (!clusters.empty()) sel.select(p, clusters[rng.pick_index(clusters)]);
    }
    const std::shared_ptr<const CompiledFlat> cf = cs.flat(sel);
    const Result<FlatGraph> direct = flatten(p, sel);
    ASSERT_EQ(cf != nullptr, direct.ok());
    if (cf == nullptr) continue;
    EXPECT_EQ(cf->graph.vertices, direct.value().vertices);
    EXPECT_EQ(cf->graph.edges, direct.value().edges);
    // index_of inverts the vertex list; adjacency covers both edge ends.
    for (std::size_t i = 0; i < cf->graph.vertices.size(); ++i) {
      EXPECT_EQ(cf->index_of[cf->graph.vertices[i].index()], i);
      EXPECT_EQ(cf->demand[i], cs.demand(cf->graph.vertices[i]));
      EXPECT_EQ(cf->footprint[i], cs.footprint(cf->graph.vertices[i]));
    }
    std::size_t degree = 0;
    for (const auto& neighbors : cf->adj) degree += neighbors.size();
    EXPECT_EQ(degree, 2 * cf->graph.edges.size());
    // The cache must hand back the same memoized entry.
    EXPECT_EQ(cf.get(), cs.flat(sel).get());
  }
}

// ---- activatability equivalence ---------------------------------------------

TEST_P(CompiledSweep, ActivatabilityAgreesWithSpecPath) {
  // The spec path: activatability by its definition over the raw mapping
  // edges and the reference universe.
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  const ReferenceUniverse ref = reference_universe(spec);
  const HierarchicalGraph& p = spec.problem();
  Rng rng(GetParam() * 91 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const AllocSet a = random_alloc(spec, rng, 0.5);
    const Activatability act(cs, a);
    DynBitset naive(p.cluster_count());
    for (const Cluster& c : p.clusters())
      if (naive_activatable(spec, ref, a, c.id)) naive.set(c.id.index());
    EXPECT_EQ(act.clusters(), naive);
    const bool root = naive.test(p.root().index());
    EXPECT_EQ(act.root_activatable(), root);
    EXPECT_EQ(is_possible_allocation(cs, a), root);
    EXPECT_EQ(estimate_flexibility(cs, a),
              root ? std::optional<double>(flexibility(p, naive))
                   : std::nullopt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledSweep,
                         ::testing::Range<std::uint64_t>(1, 12));

// ---- invalidation on mutation -----------------------------------------------

TEST(CompiledInvalidation, AddMappingRebuildsTheIndex) {
  SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec* before = &spec.compiled();
  EXPECT_EQ(before, &spec.compiled());  // stable while unmodified

  // Find a process/resource pair without a mapping edge and add one.
  NodeId process;
  for (const Node& n : spec.problem().nodes())
    if (!n.is_interface()) process = n.id;
  NodeId resource;
  for (const Node& n : spec.architecture().nodes())
    if (!n.is_interface() && spec.unit_of_resource(n.id).valid())
      resource = n.id;
  const std::size_t count = spec.compiled().mappings_of(process).size();
  spec.add_mapping(process, resource, 0.125);
  EXPECT_EQ(spec.compiled().mappings_of(process).size(), count + 1);
  EXPECT_EQ(spec.compiled().mappings_of(process).back().latency, 0.125);
}

TEST(CompiledInvalidation, AttributeEditsReachTheDenseArrays) {
  SpecificationGraph spec = models::make_settop_spec();
  NodeId process;
  for (const Node& n : spec.problem().nodes())
    if (!n.is_interface()) process = n.id;
  spec.problem().set_attr(process, attr::kPeriod, 42.0);
  EXPECT_EQ(spec.compiled().period(process), 42.0);

  AllocSet all = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
  const double cost = spec.compiled().allocation_cost(all);
  const AllocUnit& unit = spec.alloc_units().front();
  ASSERT_FALSE(unit.is_cluster_unit());
  spec.architecture().set_attr(unit.vertex, attr::kCost, unit.cost + 10.0);
  EXPECT_EQ(spec.compiled().allocation_cost(all), cost + 10.0);
}

TEST(CompiledInvalidation, CopiesStartWithColdCaches) {
  SpecificationGraph spec = models::make_settop_spec();
  (void)spec.compiled();
  SpecificationGraph copy = spec;  // must not alias the source's index
  EXPECT_NE(&copy.compiled(), &spec.compiled());
  EXPECT_EQ(copy.compiled().unit_count(), spec.compiled().unit_count());
  SpecificationGraph moved = std::move(copy);
  EXPECT_EQ(moved.compiled().unit_count(), spec.compiled().unit_count());
}

// ---- prepared activations ---------------------------------------------------

/// The specs the memo is checked on: both paper models, the nested-tile
/// example (the hierarchical path) and a deep-solve preset.
SpecificationGraph memo_spec(const std::string& name) {
  if (name == "settop") return models::make_settop_spec();
  if (name == "decoder") return models::make_tv_decoder_spec();
  if (name == "baseband-dsp-114")
    return generate_preset(PlatformPreset::kBasebandDsp, 114);
  Result<SpecificationGraph> spec =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/" + name + ".json");
  SDF_CHECK(spec.ok(), ("cannot load example spec " + name).c_str());
  return std::move(spec).value();
}

/// The activatable-cluster set of every possible allocation of `cs`'s
/// universe: every set an exploration run can ask the memo for.
std::vector<DynBitset> possible_activatable_sets(const CompiledSpec& cs) {
  const std::size_t n = cs.unit_count();
  SDF_CHECK(n <= 20, "universe too large to walk exhaustively");
  std::unordered_set<DynBitset> seen;
  std::vector<DynBitset> sets;
  AllocSet alloc = cs.make_alloc_set();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    for (std::size_t i = 0; i < n; ++i) alloc.set(i, ((mask >> i) & 1u) != 0);
    const Activatability act(cs, alloc);
    if (act.root_activatable() && seen.insert(act.clusters()).second)
      sets.push_back(act.clusters());
  }
  return sets;
}

/// Names a case by its spec, as the test listings print it.
struct MemoCase {
  const char* spec;
};

void PrintTo(const MemoCase& c, std::ostream* os) { *os << c.spec; }

class PreparedMemo : public ::testing::TestWithParam<MemoCase> {};

TEST_P(PreparedMemo, ListsEqualEnumerationWithTheCachedFlattenings) {
  const SpecificationGraph spec = memo_spec(GetParam().spec);
  const CompiledSpec& cs = spec.compiled();
  cs.set_flat_cache_budget(0, 0);  // no eviction: flattenings stay canonical
  const std::vector<DynBitset> sets = possible_activatable_sets(cs);
  ASSERT_FALSE(sets.empty());
  for (const DynBitset& activatable : sets) {
    SCOPED_TRACE("activatable " + activatable.to_string());
    const std::shared_ptr<const PreparedEcas> prepared =
        cs.prepared_ecas(activatable);
    const std::vector<Eca> ecas = enumerate_ecas(cs.problem(), activatable);
    ASSERT_NE(prepared, nullptr);
    ASSERT_EQ(prepared->size(), ecas.size());
    EXPECT_EQ(count_ecas(cs.problem(), activatable),
              static_cast<double>(ecas.size()));
    for (std::size_t i = 0; i < ecas.size(); ++i) {
      const PreparedEca& p = (*prepared)[i];
      EXPECT_TRUE(p.prepared());
      EXPECT_EQ(p.eca.selection.key(), ecas[i].selection.key());
      EXPECT_EQ(p.eca.clusters, ecas[i].clusters);
      EXPECT_EQ(p.flat, cs.flat(ecas[i].selection));
      if (p.flat == nullptr) {
        EXPECT_TRUE(p.groups.empty());
        continue;
      }
      ASSERT_EQ(p.flat->edge_pairs.size(), p.flat->graph.edges.size());
      for (std::size_t e = 0; e < p.flat->edge_pairs.size(); ++e) {
        const auto [from, to] = p.flat->graph.edges[e];
        EXPECT_EQ(p.flat->edge_pairs[e].first, p.flat->index_of[from.index()]);
        EXPECT_EQ(p.flat->edge_pairs[e].second, p.flat->index_of[to.index()]);
      }
      // The terminal groups partition the flattening's vertices.
      ASSERT_FALSE(p.groups.empty());
      std::vector<int> owners(p.flat->graph.vertices.size(), 0);
      for (const PreparedGroup& g : p.groups)
        for (std::size_t v = 0; v < owners.size(); ++v)
          if (cs.in_subtree(*g.group, p.flat->graph.vertices[v]))
            ++owners[v];
      EXPECT_EQ(std::count(owners.begin(), owners.end(), 1),
                static_cast<std::ptrdiff_t>(owners.size()));
    }
  }
  EXPECT_EQ(cs.prepared_entries(), sets.size());
}

TEST_P(PreparedMemo, RepeatedCallsShareOneList) {
  const SpecificationGraph spec = memo_spec(GetParam().spec);
  const CompiledSpec& cs = spec.compiled();
  AllocSet full = cs.make_alloc_set();
  for (std::size_t i = 0; i < full.size(); ++i) full.set(i);
  const Activatability act(cs, full);
  const std::shared_ptr<const PreparedEcas> first =
      cs.prepared_ecas(act.clusters());
  const std::shared_ptr<const PreparedEcas> again =
      cs.prepared_ecas(act.clusters());
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cs.prepared_entries(), 1u);
}

TEST_P(PreparedMemo, EachEcaLimitGetsItsOwnTruncatedList) {
  // The memo holds one list per activatable set; `enumerate_ecas` keeps
  // its limit for tests and benches, and each limit truncates that list.
  const SpecificationGraph spec = memo_spec(GetParam().spec);
  const CompiledSpec& cs = spec.compiled();
  AllocSet full = cs.make_alloc_set();
  for (std::size_t i = 0; i < full.size(); ++i) full.set(i);
  const Activatability act(cs, full);
  const DynBitset& activatable = act.clusters();
  const std::shared_ptr<const PreparedEcas> all = cs.prepared_ecas(activatable);
  ASSERT_GT(all->size(), 1u);
  const std::set<std::size_t> limits = {1, all->size() - 1, all->size(),
                                        all->size() + 1};
  for (const std::size_t limit : limits) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const std::vector<Eca> ecas =
        enumerate_ecas(cs.problem(), activatable, limit);
    ASSERT_EQ(ecas.size(), std::min(limit, all->size()));
    for (std::size_t i = 0; i < ecas.size(); ++i) {
      EXPECT_EQ((*all)[i].eca.selection.key(), ecas[i].selection.key());
      EXPECT_EQ((*all)[i].eca.clusters, ecas[i].clusters);
    }
  }
  EXPECT_EQ(cs.prepared_ecas(activatable).get(), all.get());
  EXPECT_EQ(cs.prepared_entries(), 1u);
}

/// The explore result as `--json` prints it, minus the timings and the
/// flatten-cache tally, which a budget moves by design.
std::string result_without_timings(const SpecificationGraph& spec,
                                   const ExploreResult& result) {
  Json doc = explore_result_to_json(spec, result);
  for (auto& [key, value] : doc.as_object()) {
    if (key != "stats") continue;
    std::erase_if(value.as_object(), [](const auto& field) {
      return field.first.ends_with("_seconds") ||
             field.first.starts_with("flat_cache_");
    });
  }
  return doc.dump();
}

TEST_P(PreparedMemo, TinyBudgetLeavesTheRunIdentical) {
  const SpecificationGraph roomy = memo_spec(GetParam().spec);
  const ExploreResult reference = explore(roomy);
  const SpecificationGraph tight = memo_spec(GetParam().spec);
  const CompiledSpec& cs = tight.compiled();
  cs.set_flat_cache_budget(1, 1);
  const ExploreResult squeezed = explore(tight);
  EXPECT_EQ(result_without_timings(tight, squeezed),
            result_without_timings(roomy, reference));
  EXPECT_EQ(cs.prepared_entries(), 1u);
  EXPECT_EQ(cs.flat_cache_entries(), 1u);

  // Past its first flattening a list is over the byte budget, and its
  // later entries hold their ECA alone.
  AllocSet full = cs.make_alloc_set();
  for (std::size_t i = 0; i < full.size(); ++i) full.set(i);
  const Activatability act(cs, full);
  const std::shared_ptr<const PreparedEcas> list =
      cs.prepared_ecas(act.clusters());
  ASSERT_FALSE(list->empty());
  EXPECT_TRUE(list->front().prepared());
  for (std::size_t i = 1; i < list->size(); ++i) {
    EXPECT_FALSE((*list)[i].prepared());
    EXPECT_EQ((*list)[i].flat, nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, PreparedMemo,
                         ::testing::Values(MemoCase{"settop"},
                                           MemoCase{"decoder"},
                                           MemoCase{"nested"},
                                           MemoCase{"baseband-dsp-114"}));

// ---- decomposition against the closure-based reference ---------------------

/// A group as the decomposition built it with per-node closures: every
/// node's subtree, interfaces and units over all alternatives as bitsets,
/// OR-ed into the groups.
struct ReferenceGroup {
  std::vector<NodeId> items;
  DynBitset subtree_nodes, subtree_interfaces, subtree_units;
  bool single_interface = false;
  std::uint64_t signature = 0;
};

struct ReferenceDecomposition {
  std::vector<std::vector<ReferenceGroup>> groups;  // by cluster
  std::vector<std::uint8_t> useful;                 // by cluster
  bool hier_useful = false;
};

ReferenceDecomposition reference_decomposition(const CompiledSpec& cs) {
  const HierarchicalGraph& problem = cs.problem();
  const std::size_t np = problem.node_count();
  const std::size_t nc = problem.cluster_count();
  const std::size_t nu = cs.unit_count();
  // Devices by their top architecture node: two configurations of one
  // device couple through the exclusive-configuration rule.
  const std::size_t na = cs.architecture().node_count();
  std::vector<DynBitset> sub_nodes(np, DynBitset(np));
  std::vector<DynBitset> sub_ifaces(np, DynBitset(np));
  std::vector<DynBitset> sub_units(np, DynBitset(nu));
  std::vector<DynBitset> sub_dev(np, DynBitset(na));
  std::vector<std::uint8_t> done(np, 0);
  const std::function<void(NodeId)> close_node = [&](NodeId id) {
    const std::size_t i = id.index();
    if (done[i] != 0) return;
    done[i] = 1;
    const Node& n = problem.node(id);
    sub_nodes[i].set(i);
    if (!n.is_interface()) {
      sub_units[i] |= cs.reachable_units(id);
      cs.reachable_units(id).for_each([&](std::size_t u) {
        const AllocUnit& unit = cs.unit(AllocUnitId{u});
        if (unit.is_cluster_unit()) sub_dev[i].set(unit.top.index());
      });
      return;
    }
    sub_ifaces[i].set(i);
    for (const ClusterId cid : n.clusters) {
      for (const NodeId child : problem.cluster(cid).nodes) {
        close_node(child);
        sub_nodes[i] |= sub_nodes[child.index()];
        sub_ifaces[i] |= sub_ifaces[child.index()];
        sub_units[i] |= sub_units[child.index()];
        sub_dev[i] |= sub_dev[child.index()];
      }
    }
  };
  for (std::size_t i = 0; i < np; ++i) close_node(NodeId{i});

  ReferenceDecomposition ref;
  ref.groups.resize(nc);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const Cluster& cluster = problem.cluster(ClusterId{ci});
    const std::size_t k = cluster.nodes.size();
    std::vector<std::size_t> parent(k);
    for (std::size_t i = 0; i < k; ++i) parent[i] = i;
    const std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
      return parent[x] == x ? x : parent[x] = find(parent[x]);
    };
    std::map<NodeId, std::size_t> pos;
    for (std::size_t i = 0; i < k; ++i) pos[cluster.nodes[i]] = i;
    for (const EdgeId eid : cluster.edges) {
      const Edge& e = problem.edge(eid);
      const auto fa = pos.find(e.from);
      const auto fb = pos.find(e.to);
      if (fa != pos.end() && fb != pos.end())
        parent[find(fa->second)] = find(fb->second);
    }
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t ni = cluster.nodes[i].index();
      for (std::size_t j = 0; j < i; ++j) {
        const std::size_t nj = cluster.nodes[j].index();
        if (sub_units[ni].intersects(sub_units[nj]) ||
            sub_dev[ni].intersects(sub_dev[nj]))
          parent[find(i)] = find(j);
      }
    }
    std::map<std::size_t, std::size_t> group_of_root;
    std::vector<ReferenceGroup>& groups = ref.groups[ci];
    for (std::size_t i = 0; i < k; ++i) {
      const auto [it, inserted] =
          group_of_root.emplace(find(i), groups.size());
      if (inserted)
        groups.push_back(ReferenceGroup{{}, DynBitset(np), DynBitset(np),
                                        DynBitset(nu)});
      ReferenceGroup& g = groups[it->second];
      const NodeId item = cluster.nodes[i];
      g.items.push_back(item);
      g.subtree_nodes |= sub_nodes[item.index()];
      g.subtree_interfaces |= sub_ifaces[item.index()];
      g.subtree_units |= sub_units[item.index()];
    }
    for (ReferenceGroup& g : groups) {
      g.single_interface =
          g.items.size() == 1 && problem.node(g.items[0]).is_interface();
      std::uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](std::uint64_t w) {
        h ^= w;
        h *= 1099511628211ull;
      };
      mix(g.items.size());
      for (const NodeId item : g.items) {
        const Node& n = problem.node(item);
        mix(n.is_interface() ? 1 : 2);
        if (!n.is_interface()) continue;
        mix(n.ports.size());
        for (const PortId pid : n.ports) {
          mix(problem.port(pid).direction == PortDirection::kIn ? 3 : 4);
          mix(problem.port(pid).mapping.size());
        }
        mix(n.clusters.size());
      }
      g.signature = h;
    }
  }

  std::vector<std::uint8_t> state(nc, 0);
  ref.useful.assign(nc, 0);
  const std::function<bool(ClusterId)> useful = [&](ClusterId cid) -> bool {
    const std::size_t c = cid.index();
    if (state[c] != 0) return ref.useful[c] != 0;
    state[c] = 1;
    const std::vector<ReferenceGroup>& groups = ref.groups[c];
    if (groups.size() > 1) {
      ref.useful[c] = 1;
    } else if (groups.size() == 1 && groups[0].single_interface) {
      for (const ClusterId alt : problem.node(groups[0].items[0]).clusters)
        if (useful(alt)) ref.useful[c] = 1;
    }
    return ref.useful[c] != 0;
  };
  for (std::size_t ci = 0; ci < nc; ++ci) useful(ClusterId{ci});
  ref.hier_useful = useful(problem.root());
  return ref;
}

/// `HierCache` keys of the terminal groups under `selection`, from the
/// reference groups.
void reference_keys(const ReferenceDecomposition& ref,
                    const ClusterSelection& selection, ClusterId cluster,
                    std::vector<std::vector<std::uint32_t>>& out) {
  const std::vector<ReferenceGroup>& groups = ref.groups[cluster.index()];
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const ReferenceGroup& g = groups[gi];
    if (g.single_interface) {
      const ClusterId alt = selection.selected(g.items[0]);
      if (alt.valid() && ref.useful[alt.index()] != 0) {
        reference_keys(ref, selection, alt, out);
        continue;
      }
    }
    std::vector<std::uint32_t> key = {
        static_cast<std::uint32_t>(cluster.index()),
        static_cast<std::uint32_t>(gi),
        static_cast<std::uint32_t>(g.signature),
        static_cast<std::uint32_t>(g.signature >> 32), 0};
    for (const auto& [iface, cl] : selection.key()) {
      if (!g.subtree_interfaces.test(iface)) continue;
      key.push_back(iface);
      key.push_back(cl);
      ++key[4];
    }
    out.push_back(std::move(key));
  }
}

void expect_decomposition_matches_reference(const CompiledSpec& cs) {
  const ReferenceDecomposition ref = reference_decomposition(cs);
  const HierarchicalGraph& problem = cs.problem();
  EXPECT_EQ(cs.hier_useful(), ref.hier_useful);
  std::size_t membership_mismatches = 0;
  for (std::size_t ci = 0; ci < problem.cluster_count(); ++ci) {
    SCOPED_TRACE("cluster " + std::to_string(ci));
    const ClusterDecomposition& d = cs.decomposition(ClusterId{ci});
    EXPECT_EQ(d.useful, ref.useful[ci] != 0);
    ASSERT_EQ(d.groups.size(), ref.groups[ci].size());
    for (std::size_t gi = 0; gi < d.groups.size(); ++gi) {
      const ClusterGroup& g = d.groups[gi];
      const ReferenceGroup& r = ref.groups[ci][gi];
      EXPECT_EQ(g.items, r.items);
      EXPECT_EQ(g.single_interface, r.single_interface);
      EXPECT_EQ(g.signature, r.signature);
      EXPECT_EQ(g.subtree_units, r.subtree_units);
      for (std::size_t n = 0; n < problem.node_count(); ++n) {
        const bool in = cs.in_subtree(g, NodeId{n});
        const bool iface = in && problem.node(NodeId{n}).is_interface();
        if (in != r.subtree_nodes.test(n) ||
            iface != r.subtree_interfaces.test(n))
          ++membership_mismatches;
      }
    }
  }
  EXPECT_EQ(membership_mismatches, 0u);

  DynBitset all = problem.make_cluster_set();
  for (std::size_t c = 0; c < problem.cluster_count(); ++c) all.set(c);
  for (Eca& eca : enumerate_ecas(problem, all, 256)) {
    const PreparedEca p = cs.prepare(std::move(eca));
    if (p.flat == nullptr) continue;
    std::vector<std::vector<std::uint32_t>> keys;
    reference_keys(ref, p.eca.selection, problem.root(), keys);
    ASSERT_EQ(p.groups.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
      EXPECT_EQ(p.groups[i].key, keys[i]);
  }
}

TEST_P(CompiledSweep, DecompositionMatchesClosureReference) {
  const SpecificationGraph spec = make_spec(GetParam());
  expect_decomposition_matches_reference(spec.compiled());
}

TEST(CompiledDecomposition, ExamplesAndNestedSpecsMatchClosureReference) {
  std::vector<std::pair<std::string, SpecificationGraph>> specs;
  for (const char* name : {"settop", "decoder", "nested"}) {
    Result<SpecificationGraph> spec = spec_from_file(
        std::string(SDF_EXAMPLES_DIR) + "/" + name + ".json");
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    specs.emplace_back(name, std::move(spec).value());
  }
  specs.emplace_back("nested-s@1", generate_preset(PlatformPreset::kNestedS, 1));
  specs.emplace_back("nested-m@1", generate_preset(PlatformPreset::kNestedM, 1));
  // bench_e2e's enum_nested tile specs at workload seed 1: shared tile bus.
  const auto tiles = [](std::size_t count, std::size_t depth,
                        std::uint64_t seed) {
    GeneratorParams p;
    p.seed = seed;
    p.tiles = count;
    p.max_depth = depth;
    p.tile_processors = 2;
    p.tile_bus = true;
    return generate_spec(p);
  };
  for (const std::uint64_t seed : {16, 47, 68, 71, 78, 80, 117, 149})
    specs.emplace_back("tiles-3x2x2b@" + std::to_string(seed),
                       tiles(3, 2, seed));
  for (const std::uint64_t seed : {11, 45, 68, 75, 96, 104, 108, 139})
    specs.emplace_back("tiles-2x3x2b@" + std::to_string(seed),
                       tiles(2, 3, seed));
  for (const auto& [name, spec] : specs) {
    SCOPED_TRACE(name);
    expect_decomposition_matches_reference(spec.compiled());
  }
}

// ---- pinned paper-example results (bit-identity guard) ----------------------

void expect_front(const ExploreResult& r,
                  const std::vector<std::pair<double, double>>& expected) {
  ASSERT_EQ(r.front.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.front[i].cost, expected[i].first);
    EXPECT_EQ(r.front[i].flexibility, expected[i].second);
  }
}

TEST(CompiledPinned, SettopFrontAndStatsAreUnchanged) {
  const SpecificationGraph spec = models::make_settop_spec();
  const ExploreResult r = explore(spec);
  expect_front(r, {{100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}});
  EXPECT_EQ(r.max_flexibility, 8.0);
  EXPECT_EQ(r.stats.universe, 13u);
  EXPECT_EQ(r.stats.candidates_generated, 883u);
  EXPECT_EQ(r.stats.dominated_skipped, 799u);
  EXPECT_EQ(r.stats.possible_allocations, 75u);
  EXPECT_EQ(r.stats.bound_skipped, 51u);
  EXPECT_EQ(r.stats.implementation_attempts, 24u);
  EXPECT_EQ(r.stats.solver_calls, 148u);
}

TEST(CompiledPinned, DecoderFrontAndStatsAreUnchanged) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const ExploreResult r = explore(spec);
  expect_front(r, {{50, 1}, {80, 2}, {110, 3}, {165, 4}});
  EXPECT_EQ(r.max_flexibility, 4.0);
  EXPECT_EQ(r.stats.universe, 7u);
  EXPECT_EQ(r.stats.candidates_generated, 74u);
  EXPECT_EQ(r.stats.dominated_skipped, 40u);
  EXPECT_EQ(r.stats.possible_allocations, 27u);
  EXPECT_EQ(r.stats.bound_skipped, 20u);
  EXPECT_EQ(r.stats.implementation_attempts, 7u);
  EXPECT_EQ(r.stats.solver_calls, 25u);
}

}  // namespace
}  // namespace sdf
