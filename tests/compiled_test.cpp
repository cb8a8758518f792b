// CompiledSpec correctness: every query of the compiled index must agree
// with a naive implementation computed straight from the raw
// SpecificationGraph data, across generated specs and seeds; and the
// refactor must not move the EXPLORE results of the paper examples by a
// single bit (same Pareto front, same pruning statistics).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "graph/flatten.hpp"
#include "spec/attributes.hpp"
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

std::vector<MappingEdge> naive_mappings_of(const SpecificationGraph& spec,
                                           NodeId process) {
  std::vector<MappingEdge> out;
  for (const MappingEdge& m : spec.mappings())
    if (m.process == process) out.push_back(m);
  return out;
}

std::vector<AllocUnitId> naive_reachable_units(const SpecificationGraph& spec,
                                               NodeId process) {
  std::vector<AllocUnitId> out;
  for (const MappingEdge& m : spec.mappings()) {
    if (m.process != process) continue;
    const AllocUnitId u = spec.unit_of_resource(m.resource);
    if (u.valid() && std::find(out.begin(), out.end(), u) == out.end())
      out.push_back(u);
  }
  return out;
}

double naive_allocation_cost(const SpecificationGraph& spec,
                             const AllocSet& alloc) {
  const auto& units = spec.alloc_units();
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
                          const AllocSet& alloc, AllocUnitId a,
                          AllocUnitId b) {
  const auto& units = spec.alloc_units();
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

class CompiledSweep : public ::testing::TestWithParam<std::uint64_t> {};

// ---- mapping-edge queries ---------------------------------------------------

TEST_P(CompiledSweep, MappingsMatchNaiveScan) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  for (const Node& n : spec.problem().nodes()) {
    const std::vector<MappingEdge> naive = naive_mappings_of(spec, n.id);
    const auto compiled = cs.mappings_of(n.id);
    ASSERT_EQ(naive.size(), compiled.size());
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].resource, compiled[i].resource);
      EXPECT_EQ(naive[i].latency, compiled[i].latency);
      EXPECT_EQ(spec.unit_of_resource(naive[i].resource), compiled[i].unit);
    }
  }
}

TEST_P(CompiledSweep, ReachableUnitsMatchNaiveScan) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  for (const Node& n : spec.problem().nodes()) {
    const std::vector<AllocUnitId> naive = naive_reachable_units(spec, n.id);
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
  for (std::size_t u = 0; u < cs.unit_count(); ++u) {
    std::vector<NodeId> naive;
    for (const Node& n : spec.problem().nodes()) {
      const std::vector<AllocUnitId> reach = naive_reachable_units(spec, n.id);
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
  Rng rng(GetParam() * 131 + 1);
  for (int trial = 0; trial < 24; ++trial) {
    const AllocSet a = random_alloc(spec, rng, rng.uniform_double(0.1, 0.9));
    EXPECT_EQ(cs.allocation_cost(a), naive_allocation_cost(spec, a));
    EXPECT_EQ(spec.allocation_cost(a), naive_allocation_cost(spec, a));
  }
}

TEST_P(CompiledSweep, CommReachableMatchesNaiveAdjacencyScan) {
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  Rng rng(GetParam() * 57 + 11);
  for (int trial = 0; trial < 6; ++trial) {
    const AllocSet a = random_alloc(spec, rng, 0.5);
    for (std::size_t i = 0; i < cs.unit_count(); ++i)
      for (std::size_t j = 0; j < cs.unit_count(); ++j) {
        const AllocUnitId ui{i}, uj{j};
        EXPECT_EQ(cs.comm_reachable(a, ui, uj),
                  naive_comm_reachable(spec, a, ui, uj))
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
  const SpecificationGraph spec = make_spec(GetParam());
  const CompiledSpec& cs = spec.compiled();
  Rng rng(GetParam() * 91 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const AllocSet a = random_alloc(spec, rng, 0.5);
    const Activatability via_compiled(cs, a);
    const Activatability via_spec(spec, a);
    EXPECT_EQ(via_compiled.root_activatable(), via_spec.root_activatable());
    for (const Cluster& c : spec.problem().clusters())
      EXPECT_EQ(via_compiled.activatable(c.id), via_spec.activatable(c.id));
    EXPECT_EQ(estimate_flexibility(cs, a), estimate_flexibility(spec, a));
    EXPECT_EQ(is_possible_allocation(cs, a), is_possible_allocation(spec, a));
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
  const std::size_t limit = ImplementationOptions{}.eca_limit;
  for (const DynBitset& activatable : sets) {
    SCOPED_TRACE("activatable " + activatable.to_string());
    const std::shared_ptr<const PreparedEcas> prepared =
        cs.prepared_ecas(activatable, limit);
    const std::vector<Eca> ecas =
        enumerate_ecas(cs.problem(), activatable, limit);
    ASSERT_NE(prepared, nullptr);
    ASSERT_EQ(prepared->size(), ecas.size());
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
          if (g.group->subtree_nodes.test(p.flat->graph.vertices[v].index()))
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
      cs.prepared_ecas(act.clusters(), 4096);
  const std::shared_ptr<const PreparedEcas> again =
      cs.prepared_ecas(act.clusters(), 4096);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cs.prepared_entries(), 1u);
}

TEST_P(PreparedMemo, EachEcaLimitGetsItsOwnTruncatedList) {
  const SpecificationGraph spec = memo_spec(GetParam().spec);
  const CompiledSpec& cs = spec.compiled();
  AllocSet full = cs.make_alloc_set();
  for (std::size_t i = 0; i < full.size(); ++i) full.set(i);
  const Activatability act(cs, full);
  const DynBitset& activatable = act.clusters();
  const std::shared_ptr<const PreparedEcas> all =
      cs.prepared_ecas(activatable, 0);
  ASSERT_GT(all->size(), 1u);
  const std::set<std::size_t> limits = {1, all->size() - 1, all->size(),
                                        all->size() + 1};
  for (const std::size_t limit : limits) {
    SCOPED_TRACE("eca_limit " + std::to_string(limit));
    const std::shared_ptr<const PreparedEcas> capped =
        cs.prepared_ecas(activatable, limit);
    EXPECT_NE(capped.get(), all.get());
    const std::vector<Eca> ecas =
        enumerate_ecas(cs.problem(), activatable, limit);
    ASSERT_EQ(capped->size(), ecas.size());
    ASSERT_EQ(capped->size(), std::min(limit, all->size()));
    for (std::size_t i = 0; i < capped->size(); ++i) {
      EXPECT_EQ((*capped)[i].eca.selection.key(), ecas[i].selection.key());
      EXPECT_EQ((*capped)[i].key, (*all)[i].key);
    }
  }
  EXPECT_EQ(cs.prepared_entries(), limits.size() + 1);
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
      cs.prepared_ecas(act.clusters(), ImplementationOptions{}.eca_limit);
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
