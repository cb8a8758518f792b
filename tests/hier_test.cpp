// Tests for the hierarchy-native solve path (HierCache) and the static
// cluster decomposition it rests on.
//
// The load-bearing property is verdict identity: for every (allocation,
// ECA) query the hierarchical path must return feasible exactly when the
// flat kernel does, and any witness it returns must pass the full
// `binding_feasible` check.  The property tests drive that against the raw
// solver on generated specs — nested-tile specs (which decompose at every
// level) and the default generator family (which mostly does not).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bind/bind_cache.hpp"
#include "bind/solver.hpp"
#include "explore/explorer.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

const SpecificationGraph& decoder() {
  static const SpecificationGraph spec = models::make_tv_decoder_spec();
  return spec;
}

GeneratorParams nested_params(std::uint64_t seed) {
  GeneratorParams p;
  p.seed = seed;
  p.tiles = 2;
  p.max_depth = 3;
  p.tile_processors = 2;
  p.tile_alternatives = 2;
  p.tile_processes = 2;
  p.tile_bus = true;
  return p;
}

AllocSet full_alloc(const CompiledSpec& cs) {
  AllocSet a = cs.make_alloc_set();
  for (std::size_t i = 0; i < a.size(); ++i) a.set(i);
  return a;
}

std::vector<Eca> full_ecas(const CompiledSpec& cs, std::size_t limit = 0) {
  const Activatability act(cs, full_alloc(cs));
  return enumerate_ecas(cs.problem(), act.clusters(), limit);
}

/// Random sub-allocation: each unit kept with probability `keep`.
AllocSet random_alloc(const CompiledSpec& cs, Rng& rng, double keep) {
  AllocSet a = cs.make_alloc_set();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rng.chance(keep)) a.set(i);
  return a;
}

void expect_fronts_equal(const ExploreResult& a, const ExploreResult& b) {
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    SCOPED_TRACE("front row " + std::to_string(i));
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
    EXPECT_TRUE(a.front[i].units == b.front[i].units);
  }
}

// ---------------------------------------------------------------------------
// Static decomposition: structure and usefulness.
// ---------------------------------------------------------------------------

TEST(Decomposition, PaperModelsDoNotDecompose) {
  // Both paper models funnel every process through one shared unit pool, so
  // union-find merges each cluster's interior into a single group and the
  // hierarchical path must stand down.  The pinned solver_calls / node
  // counts in bind_cache_test and anytime_test depend on this.
  EXPECT_FALSE(settop().compiled().hier_useful());
  EXPECT_FALSE(decoder().compiled().hier_useful());
}

TEST(Decomposition, NestedTileSpecsDecompose) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const SpecificationGraph spec = generate_spec(nested_params(seed));
    EXPECT_TRUE(spec.compiled().hier_useful()) << "seed " << seed;
  }
}

TEST(Decomposition, GroupsAreDisjointAndCoverEveryCluster) {
  const SpecificationGraph spec = generate_spec(nested_params(3));
  const CompiledSpec& cs = spec.compiled();
  std::vector<ClusterId> clusters = cs.problem().all_refinement_clusters();
  clusters.push_back(cs.problem().root());
  for (const ClusterId cluster : clusters) {
    const ClusterDecomposition& dec = cs.decomposition(cluster);
    for (std::size_t i = 0; i < dec.groups.size(); ++i) {
      const ClusterGroup& g = dec.groups[i];
      EXPECT_FALSE(g.items.empty());
      if (g.single_interface) EXPECT_EQ(g.items.size(), 1u);
      // Items are covered by the group's own subtree closure.
      for (const NodeId item : g.items)
        EXPECT_TRUE(g.subtree_nodes.test(item.index()));
      // Pairwise disjoint: no node and no mappable unit is shared between
      // two groups of one cluster (the soundness precondition).
      for (std::size_t j = i + 1; j < dec.groups.size(); ++j) {
        EXPECT_FALSE(g.subtree_nodes.intersects(dec.groups[j].subtree_nodes));
        EXPECT_FALSE(g.subtree_units.intersects(dec.groups[j].subtree_units));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Verdict identity: HierCache vs the raw flat kernel.
// ---------------------------------------------------------------------------

void check_hier_matches_flat(const SpecificationGraph& spec,
                             std::uint64_t seed) {
  const CompiledSpec& cs = spec.compiled();
  const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/64);
  ASSERT_FALSE(ecas.empty());
  Rng rng(seed);
  HierCache hier;

  std::vector<AllocSet> allocs;
  allocs.push_back(full_alloc(cs));
  for (int i = 0; i < 6; ++i)
    allocs.push_back(random_alloc(cs, rng, 0.3 + 0.1 * i));

  // Two passes over the same queries: the first mixes misses and hits, the
  // second must be answered almost entirely from the frontier caches —
  // either way every verdict has to match the flat kernel.
  SolverStats hs;  // accumulates the hierarchical path's counters
  for (int pass = 0; pass < 2; ++pass) {
    for (const AllocSet& alloc : allocs) {
      for (const Eca& eca : ecas) {
        SolverStats fs;
        const std::optional<Binding> flat = solve_binding(cs, alloc, eca, {}, &fs);
        const std::optional<Binding> h = hier.solve(cs, alloc, eca, {}, &hs);
        ASSERT_EQ(flat.has_value(), h.has_value())
            << "pass " << pass << " verdict mismatch";
        EXPECT_EQ(fs.outcome, hs.outcome);
        if (h.has_value())
          EXPECT_TRUE(binding_feasible(cs, alloc, eca, *h))
              << "hier witness rejected by the full checker";
      }
    }
  }
  if (cs.hier_useful()) {
    EXPECT_GT(hs.hier_subsolves, 0u);
    // The second pass re-asks every query: the frontier must convert some
    // of those into hits instead of fresh sub-solves.
    EXPECT_GT(hs.hier_hits, 0u);
  }
}

TEST(HierVsFlat, NestedTileSpecsAgreeAcrossSeeds) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_hier_matches_flat(generate_spec(nested_params(seed)), seed);
  }
}

TEST(HierVsFlat, DefaultGeneratorSpecsAgree) {
  // Mostly non-decomposing specs: HierCache must still answer correctly
  // (typically by flat fallback inside solve()).
  for (std::uint64_t seed : {2u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratorParams p;
    p.seed = seed;
    check_hier_matches_flat(generate_spec(p), seed);
  }
}

TEST(HierVsFlat, PaperModelsAgree) {
  check_hier_matches_flat(settop(), 5);
  check_hier_matches_flat(decoder(), 6);
}

// ---------------------------------------------------------------------------
// Explore-level equivalence and pinned fronts.
// ---------------------------------------------------------------------------

TEST(HierExplore, NestedFrontMatchesNoHierWithFewerNodes) {
  const SpecificationGraph spec = generate_spec(nested_params(7));
  ExploreOptions on;
  ExploreOptions off;
  off.implementation.use_hier = false;
  const ExploreResult with_hier = explore(spec, on);
  const ExploreResult without = explore(spec, off);
  expect_fronts_equal(with_hier, without);
  EXPECT_EQ(with_hier.stats.solver_calls, without.stats.solver_calls);
  EXPECT_GT(with_hier.stats.hier_subsolves, 0u);
  EXPECT_EQ(without.stats.hier_subsolves, 0u);
  EXPECT_LT(with_hier.stats.solver_nodes, without.stats.solver_nodes);
}

TEST(HierExplore, SettopPinnedFrontAndStats) {
  // settop is not hier-useful: the hierarchical path must not change ONE
  // deterministic counter.  Max flexibility pinned from the paper model.
  ExploreOptions on;
  ExploreOptions off;
  off.implementation.use_hier = false;
  const ExploreResult a = explore(settop(), on);
  const ExploreResult b = explore(settop(), off);
  expect_fronts_equal(a, b);
  EXPECT_EQ(a.stats.solver_calls, b.stats.solver_calls);
  EXPECT_EQ(a.stats.solver_nodes, b.stats.solver_nodes);
  EXPECT_EQ(a.stats.implementation_attempts, b.stats.implementation_attempts);
  EXPECT_EQ(a.stats.analysis_pruned, b.stats.analysis_pruned);
  EXPECT_EQ(a.stats.hier_subsolves, 0u);
  EXPECT_EQ(a.stats.hier_hits, 0u);
  ASSERT_FALSE(a.front.empty());
  EXPECT_EQ(a.front.back().flexibility, 8u);
}

TEST(HierExplore, DecoderPinnedFrontAndStats) {
  ExploreOptions on;
  ExploreOptions off;
  off.implementation.use_hier = false;
  const ExploreResult a = explore(decoder(), on);
  const ExploreResult b = explore(decoder(), off);
  expect_fronts_equal(a, b);
  EXPECT_EQ(a.stats.solver_calls, b.stats.solver_calls);
  EXPECT_EQ(a.stats.solver_nodes, b.stats.solver_nodes);
  EXPECT_EQ(a.stats.hier_subsolves, 0u);
}

// ---------------------------------------------------------------------------
// Flat-cache LRU budget.
// ---------------------------------------------------------------------------

TEST(FlatCacheLru, EntryBudgetEvictsAndSharedPtrSurvives) {
  const SpecificationGraph spec = generate_spec(nested_params(9));
  const CompiledSpec& cs = spec.compiled();
  cs.set_flat_cache_budget(/*max_entries=*/4, /*max_bytes=*/64 << 20);
  const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/32);
  ASSERT_GT(ecas.size(), 8u);

  // Hold the first flattening while forcing it out of the cache.
  const std::shared_ptr<const CompiledFlat> pinned =
      cs.flat(ecas.front().selection);
  ASSERT_NE(pinned, nullptr);
  for (const Eca& eca : ecas) (void)cs.flat(eca.selection);
  EXPECT_LE(cs.flat_cache_entries(), 4u);
  EXPECT_GT(cs.flat_cache_evictions(), 0u);
  // The evicted flattening is still fully usable through the shared_ptr.
  EXPECT_FALSE(pinned->graph.vertices.empty());

  // Re-requesting an evicted selection rebuilds a distinct instance.
  const std::shared_ptr<const CompiledFlat> rebuilt =
      cs.flat(ecas.front().selection);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), pinned.get());
  cs.set_flat_cache_budget(1024, 64ull << 20);
}

TEST(FlatCacheLru, ZeroBudgetMeansUnlimited) {
  const SpecificationGraph spec = generate_spec(nested_params(10));
  const CompiledSpec& cs = spec.compiled();
  cs.set_flat_cache_budget(0, 0);
  const std::vector<Eca> ecas = full_ecas(cs, 16);
  ASSERT_GT(ecas.size(), 4u);
  for (const Eca& eca : ecas) ASSERT_NE(cs.flat(eca.selection), nullptr);
  EXPECT_EQ(cs.flat_cache_entries(), ecas.size());
  EXPECT_EQ(cs.flat_cache_evictions(), 0u);
}

TEST(FlatCacheLru, TinyByteBudgetKeepsTheMostRecentEntry) {
  const SpecificationGraph spec = generate_spec(nested_params(11));
  const CompiledSpec& cs = spec.compiled();
  cs.set_flat_cache_budget(0, /*max_bytes=*/1);  // below any single entry
  const std::vector<Eca> ecas = full_ecas(cs, 8);
  ASSERT_GT(ecas.size(), 2u);
  for (const Eca& eca : ecas) ASSERT_NE(cs.flat(eca.selection), nullptr);
  // The MRU entry is never evicted (a cache that thrashes its only user
  // would be worse than no cache), so the floor is one entry.
  EXPECT_EQ(cs.flat_cache_entries(), 1u);
  EXPECT_EQ(cs.flat_cache_evictions(), ecas.size() - 1);
}

}  // namespace
}  // namespace sdf
