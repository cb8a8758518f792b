// Tests for the cross-allocation binding caches (BindCache, and HierCache
// where they share the frontier's concurrency and fault paths) and the
// solver stats per-call reset contract they depend on.
//
// The load-bearing property is allocation-lattice monotonicity:
//   feasible(A)   ⇒ feasible(A ∪ {u})    (witness still valid, more comm)
//   infeasible(A) ⇒ infeasible(A \ {u})  (fewer units can't help)
// which the property tests check against the raw solver on generated specs,
// and which the cache tests rely on for superset/subset hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bind/bind_cache.hpp"
#include "bind/eca.hpp"
#include "bind/solver.hpp"
#include "explore/explorer.hpp"
#include "flex/activatability.hpp"
#include "gen/spec_generator.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/fault_injection.hpp"
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

/// examples/specs/nested.json: the example spec that decomposes, so its
/// queries take the `HierCache` path.
const SpecificationGraph& nested() {
  static const SpecificationGraph spec = [] {
    Result<SpecificationGraph> loaded =
        spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
    SDF_CHECK(loaded.ok(), "cannot load examples/specs/nested.json");
    return std::move(loaded).value();
  }();
  return spec;
}

AllocSet full_alloc(const CompiledSpec& cs) {
  AllocSet a = cs.make_alloc_set();
  for (std::size_t i = 0; i < a.size(); ++i) a.set(i);
  return a;
}

/// ECAs reachable under the full allocation (every cluster activatable).
std::vector<Eca> full_ecas(const CompiledSpec& cs, std::size_t limit = 0) {
  const Activatability act(cs, full_alloc(cs));
  return enumerate_ecas(cs.problem(), act.clusters(), limit);
}

/// An ECA whose uncached solve visits at least two nodes, so a
/// `node_limit = 1` run genuinely aborts instead of finishing.
const Eca* find_hard_eca(const CompiledSpec& cs, const std::vector<Eca>& ecas,
                         const AllocSet& alloc) {
  for (const Eca& eca : ecas) {
    SolverStats st;
    (void)solve_binding(cs, alloc, eca, {}, &st);
    if (st.outcome == SolveOutcome::kFeasible && st.nodes >= 2) return &eca;
  }
  return nullptr;
}

/// Frontier answers counted in `stats`: `BindCache` hits plus `HierCache`
/// group hits.  The caches count nothing themselves.
std::uint64_t frontier_hits(const SolverStats& stats) {
  return stats.cache_hits_feasible + stats.cache_hits_infeasible +
         stats.hier_hits;
}

/// Whether a cache call, counted in its own fresh `SolverStats`, missed: it
/// hit nothing in the frontier and searched.
bool missed(const SolverStats& call) {
  return frontier_hits(call) == 0 && call.nodes > 0;
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
// SolverStats per-call reset (regression: a reused stats object must not
// leak the previous call's verdict or abort flag).
// ---------------------------------------------------------------------------

TEST(SolverStatsReuse, OutcomeAndAbortAreResetOnEveryCall) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);
  const Eca* hard = find_hard_eca(cs, ecas, full);
  ASSERT_NE(hard, nullptr);

  SolverStats st;  // one object, reused across all four calls

  // 1. Feasible call.
  ASSERT_TRUE(solve_binding(cs, full, *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_FALSE(st.aborted);
  const std::uint64_t nodes_after_first = st.nodes;
  EXPECT_GE(nodes_after_first, 2u);

  // 2. Infeasible call (empty allocation): outcome must flip, nodes keep
  //    accumulating.
  EXPECT_FALSE(
      solve_binding(cs, cs.make_alloc_set(), *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);
  EXPECT_FALSE(st.aborted);
  EXPECT_GE(st.nodes, nodes_after_first);  // cumulative, never reset

  // 3. Aborted call (node limit).
  SolverOptions limited;
  limited.node_limit = 1;
  EXPECT_FALSE(solve_binding(cs, full, *hard, limited, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kNodeLimit);
  EXPECT_TRUE(st.aborted);

  // 4. Feasible again: the stale abort flag and verdict must be cleared.
  ASSERT_TRUE(solve_binding(cs, full, *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_FALSE(st.aborted);
}

TEST(SolverStatsReuse, CacheSolveResetsPerCallFieldsToo) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache;
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_FALSE(
      cache.solve(cs, cs.make_alloc_set(), ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);
  EXPECT_FALSE(st.aborted);
  // Second feasible query is a hit and must still report kFeasible.
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
}

// ---------------------------------------------------------------------------
// BindCache frontier mechanics.
// ---------------------------------------------------------------------------

TEST(BindCacheTest, IdenticalQueryIsAFeasibleHitWithAValidWitness) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache;
  SolverStats first;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &first).has_value());
  EXPECT_TRUE(missed(first));
  EXPECT_GE(cache.entries(), 1u);

  SolverStats st;
  const std::optional<Binding> again = cache.solve(cs, full, ecas[0], {}, &st);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(st.cache_hits_feasible, 1u);
  EXPECT_EQ(st.cache_revalidations, 1u);
  EXPECT_EQ(st.nodes, 0u);
  EXPECT_TRUE(binding_feasible(cs, full, ecas[0], *again));
}

TEST(BindCacheTest, SupersetQueryReusesASubsetWitness) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  // Find a proper subset that is still feasible for ecas[0].
  AllocSet sub = cs.make_alloc_set();
  bool found = false;
  for (std::size_t u = 0; u < full.size() && !found; ++u) {
    AllocSet candidate = full;
    candidate.reset(u);
    SolverStats st;
    if (solve_binding(cs, candidate, ecas[0], {}, &st).has_value()) {
      sub = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no feasible proper subset of the full allocation";

  BindCache cache;
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, sub, ecas[0], {}, &st).has_value());
  // The full allocation is a strict superset: the subset's witness must be
  // revalidated and returned without a search.
  const std::uint64_t nodes_before = st.nodes;
  const std::optional<Binding> hit = cache.solve(cs, full, ecas[0], {}, &st);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(st.cache_hits_feasible, 1u);
  EXPECT_EQ(st.nodes, nodes_before);  // no search nodes spent on the hit
  EXPECT_TRUE(binding_feasible(cs, full, ecas[0], *hit));
}

TEST(BindCacheTest, SubsetOfAnInfeasibleAllocationIsAProofHit) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());

  // Find a single-unit allocation that is provably infeasible.
  AllocSet bad = cs.make_alloc_set();
  bool found = false;
  for (std::size_t u = 0; u < bad.size() && !found; ++u) {
    AllocSet candidate = cs.make_alloc_set();
    candidate.set(u);
    SolverStats st;
    (void)solve_binding(cs, candidate, ecas[0], {}, &st);
    if (st.outcome == SolveOutcome::kInfeasible) {
      bad = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "every single-unit allocation was feasible";

  BindCache cache;
  SolverStats st;
  EXPECT_FALSE(cache.solve(cs, bad, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);

  // The empty allocation is a subset: proof transfers, no solve.
  const std::uint64_t nodes_before = st.nodes;
  EXPECT_FALSE(
      cache.solve(cs, cs.make_alloc_set(), ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);
  EXPECT_EQ(st.cache_hits_infeasible, 1u);
  EXPECT_EQ(st.nodes, nodes_before);
}

TEST(BindCacheTest, InsertPrunesEntriesDominatedByTheNewOne) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  AllocSet sub = cs.make_alloc_set();
  bool found = false;
  for (std::size_t u = 0; u < full.size() && !found; ++u) {
    AllocSet candidate = full;
    candidate.reset(u);
    SolverStats st;
    if (solve_binding(cs, candidate, ecas[0], {}, &st).has_value()) {
      sub = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  BindCache cache;
  SolverStats st;
  // Insert the superset first, then the (dominating) subset: the frontier
  // keeps only the minimal entry.
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(cache.entries(), 1u);
  ASSERT_TRUE(cache.solve(cs, sub, ecas[0], {}, &st).has_value());
  EXPECT_EQ(cache.entries(), 1u);  // full-allocation entry pruned
  // The surviving minimal entry still answers the superset query.
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.cache_hits_feasible, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(BindCacheTest, AbortedSolvesAreNeverCached) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);
  const Eca* hard = find_hard_eca(cs, ecas, full);
  ASSERT_NE(hard, nullptr);

  BindCache cache;
  SolverStats st;
  SolverOptions limited;
  limited.node_limit = 1;
  EXPECT_FALSE(cache.solve(cs, full, *hard, limited, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kNodeLimit);
  EXPECT_TRUE(st.aborted);
  EXPECT_TRUE(missed(st));
  EXPECT_EQ(cache.entries(), 0u) << "a budget abort proves nothing";

  // The unlimited retry must be a genuine solve (miss) with the real
  // verdict — never an infeasibility "hit" fabricated from the abort.
  SolverStats retry;
  ASSERT_TRUE(cache.solve(cs, full, *hard, {}, &retry).has_value());
  EXPECT_EQ(retry.outcome, SolveOutcome::kFeasible);
  EXPECT_TRUE(missed(retry));
}

TEST(BindCacheTest, ClearEmptiesFrontiers) {
  const CompiledSpec& cs = decoder().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  BindCache cache;
  SolverStats st;
  for (const Eca& eca : ecas)
    (void)cache.solve(cs, full_alloc(cs), eca, {}, &st);
  ASSERT_GE(cache.entries(), 1u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  // Still usable after clear, and the dropped facts answer nothing.
  SolverStats after;
  ASSERT_TRUE(
      cache.solve(cs, full_alloc(cs), ecas[0], {}, &after).has_value());
  EXPECT_TRUE(missed(after));
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(BindCacheTest, ShardCountZeroIsClampedToOneShard) {
  // Regression: BindCache(0) used to be accepted unclamped, making every
  // key hash a modulo-by-zero.  A zero shard count must behave exactly
  // like a single-shard cache.
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache(0);
  SolverStats st;
  for (const Eca& eca : ecas)
    (void)cache.solve(cs, full, eca, {}, &st);
  EXPECT_GE(cache.entries(), 1u);
  SolverStats again;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &again).has_value());
  EXPECT_EQ(again.cache_hits_feasible, 1u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);

  // HierCache shares the clamp.
  const CompiledSpec& ncs = nested().compiled();
  const std::vector<Eca> necas = full_ecas(ncs, /*limit=*/1);
  ASSERT_FALSE(necas.empty());
  HierCache hier(0);
  ASSERT_TRUE(hier.solve(ncs, full_alloc(ncs), necas[0], {}, &st).has_value());
  SolverStats hier_again;
  ASSERT_TRUE(
      hier.solve(ncs, full_alloc(ncs), necas[0], {}, &hier_again).has_value());
  EXPECT_GE(hier_again.hier_hits, 1u);
  EXPECT_EQ(hier_again.hier_subsolves, 0u);
  hier.clear();
  EXPECT_EQ(hier.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent readers and writers on the shared frontier.  Run under TSan by
// scripts/check_all.sh / scripts/check_tsan.sh: readers probe frontiers
// while writers keep extending them, through both caches.
// ---------------------------------------------------------------------------

/// The full and empty allocations plus every one-unit and drop-one-unit
/// allocation: neighbours in the lattice, so inserts dominate each other.
std::vector<AllocSet> neighbour_allocs(const CompiledSpec& cs) {
  const AllocSet full = full_alloc(cs);
  std::vector<AllocSet> allocs{full, cs.make_alloc_set()};
  for (std::size_t u = 0; u < full.size(); ++u) {
    AllocSet one = cs.make_alloc_set();
    one.set(u);
    allocs.push_back(one);
    AllocSet without = full;
    without.reset(u);
    allocs.push_back(without);
  }
  return allocs;
}

/// What the workers of `probe_concurrently` counted, each in its own
/// `SolverStats`, summed after they joined.
struct ProbeTotals {
  std::uint64_t probes = 0;
  std::uint64_t misses = 0;  ///< calls that hit nothing in the frontier
  SolverStats stats;         ///< the workers' counters, summed
};

/// Sends every (allocation, ECA) query through `cache` from four threads
/// for `rounds` rounds and checks each verdict against the raw solver and
/// each witness against the full checker.
template <typename Cache>
ProbeTotals probe_concurrently(Cache& cache, const CompiledSpec& cs,
                               const std::vector<Eca>& ecas,
                               const std::vector<AllocSet>& allocs,
                               int rounds) {
  // Pre-compute the raw verdict for every (allocation, ECA) pair so worker
  // threads can check agreement without calling the solver under race.
  std::vector<std::vector<bool>> expected(ecas.size());
  for (std::size_t e = 0; e < ecas.size(); ++e) {
    expected[e].resize(allocs.size());
    for (std::size_t a = 0; a < allocs.size(); ++a) {
      SolverStats st;
      expected[e][a] =
          solve_binding(cs, allocs[a], ecas[e], {}, &st).has_value();
    }
  }

  std::atomic<std::uint64_t> disagreements{0};
  std::atomic<std::uint64_t> bad_witnesses{0};
  const std::size_t kThreads = 4;
  const std::size_t queries = ecas.size() * allocs.size();
  std::vector<SolverStats> worker_stats(kThreads);
  std::vector<std::uint64_t> worker_misses(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the same query set from a different offset, so
      // at any moment some threads miss and insert (writers) while others
      // hit the facts those inserts stored (readers).
      SolverStats& own = worker_stats[t];  // accumulates across calls
      for (int round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < queries; ++i) {
          const std::size_t q = (i + t * 7) % queries;
          const std::size_t e = q / allocs.size();
          const std::size_t a = q % allocs.size();
          const std::uint64_t hits_before = frontier_hits(own);
          const std::optional<Binding> got =
              cache.solve(cs, allocs[a], ecas[e], {}, &own);
          if (frontier_hits(own) == hits_before) ++worker_misses[t];
          if (got.has_value() != expected[e][a])
            disagreements.fetch_add(1, std::memory_order_relaxed);
          if (got.has_value() &&
              !binding_feasible(cs, allocs[a], ecas[e], *got))
            bad_witnesses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(disagreements.load(), 0u) << "cached verdict diverged under race";
  EXPECT_EQ(bad_witnesses.load(), 0u) << "stale witness served under race";

  ProbeTotals totals;
  totals.probes = kThreads * rounds * queries;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const SolverStats& w = worker_stats[t];
    totals.misses += worker_misses[t];
    totals.stats.cache_hits_feasible += w.cache_hits_feasible;
    totals.stats.cache_hits_infeasible += w.cache_hits_infeasible;
    totals.stats.hier_hits += w.hier_hits;
    totals.stats.hier_subsolves += w.hier_subsolves;
  }
  return totals;
}

TEST(BindCacheConcurrency, ReadersScanWhileWritersPublish) {
  // Few shards concentrate the lock contention the test wants to provoke.
  {
    SCOPED_TRACE("BindCache on settop");
    const CompiledSpec& cs = settop().compiled();
    const std::vector<Eca> ecas = full_ecas(cs);
    ASSERT_FALSE(ecas.empty());
    BindCache cache(2);
    const ProbeTotals t =
        probe_concurrently(cache, cs, ecas, neighbour_allocs(cs), 8);
    // Probe accounting holds exactly even under contention: every call is
    // one miss or one hit…
    EXPECT_EQ(t.misses + frontier_hits(t.stats), t.probes);
    // …and the frontier converged: later rounds are all hits.
    EXPECT_GT(frontier_hits(t.stats), t.misses);
  }
  {
    SCOPED_TRACE("HierCache on nested.json");
    const CompiledSpec& cs = nested().compiled();
    ASSERT_TRUE(cs.hier_useful());
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/16);
    ASSERT_FALSE(ecas.empty());
    HierCache cache(2);
    const ProbeTotals t =
        probe_concurrently(cache, cs, ecas, neighbour_allocs(cs), 4);
    // Group verdicts come mostly from the frontier, not the kernel.
    EXPECT_GT(t.stats.hier_hits, t.stats.hier_subsolves);
    EXPECT_GT(cache.entries(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Lattice monotonicity on generated specs, and cached-vs-raw agreement.
// ---------------------------------------------------------------------------

GeneratorParams small_params(std::uint64_t seed) {
  GeneratorParams p;
  p.seed = seed;
  p.applications = 2;
  p.processes_per_app_max = 3;
  return p;
}

/// Random sub-allocations of the full unit set, always including the full
/// and empty sets so both lattice extremes are exercised.
std::vector<AllocSet> sample_allocs(const CompiledSpec& cs, Rng& rng,
                                    std::size_t n) {
  std::vector<AllocSet> out;
  out.push_back(full_alloc(cs));
  out.push_back(cs.make_alloc_set());
  for (std::size_t k = 0; k < n; ++k) {
    AllocSet a = cs.make_alloc_set();
    for (std::size_t u = 0; u < a.size(); ++u)
      if (rng.chance(0.6)) a.set(u);
    out.push_back(a);
  }
  return out;
}

TEST(LatticeMonotonicity, FeasibilityIsMonotoneOnGeneratedSpecs) {
  for (std::uint64_t seed : {1u, 7u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SpecificationGraph spec = generate_spec(small_params(seed));
    const CompiledSpec& cs = spec.compiled();
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/4);
    if (ecas.empty()) continue;
    Rng rng(seed * 77 + 1);
    const std::vector<AllocSet> samples = sample_allocs(cs, rng, 6);

    for (const Eca& eca : ecas) {
      for (const AllocSet& a : samples) {
        SolverStats st;
        (void)solve_binding(cs, a, eca, {}, &st);
        if (st.outcome == SolveOutcome::kFeasible) {
          // Adding any unit must preserve feasibility.
          for (std::size_t u = 0; u < a.size(); ++u) {
            if (a.test(u)) continue;
            AllocSet up = a;
            up.set(u);
            SolverStats st2;
            EXPECT_TRUE(solve_binding(cs, up, eca, {}, &st2).has_value())
                << "feasible(A) but infeasible(A ∪ {" << u << "})";
          }
        } else {
          ASSERT_EQ(st.outcome, SolveOutcome::kInfeasible);
          // Removing any unit must preserve infeasibility.
          for (std::size_t u = 0; u < a.size(); ++u) {
            if (!a.test(u)) continue;
            AllocSet down = a;
            down.reset(u);
            SolverStats st2;
            EXPECT_FALSE(solve_binding(cs, down, eca, {}, &st2).has_value())
                << "infeasible(A) but feasible(A \\ {" << u << "})";
          }
        }
      }
    }
  }
}

TEST(LatticeMonotonicity, CachedVerdictsMatchTheRawSolverOnARandomStream) {
  for (std::uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SpecificationGraph spec = generate_spec(small_params(seed));
    const CompiledSpec& cs = spec.compiled();
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/4);
    if (ecas.empty()) continue;
    Rng rng(seed * 31 + 5);

    BindCache cache;
    std::uint64_t queries = 0;
    std::uint64_t misses = 0;
    std::uint64_t hits = 0;
    for (int round = 0; round < 2; ++round) {  // round 2 replays → hits
      for (const Eca& eca : ecas) {
        for (const AllocSet& a : sample_allocs(cs, rng, 8)) {
          SolverStats raw_stats;
          const bool raw =
              solve_binding(cs, a, eca, {}, &raw_stats).has_value();
          SolverStats cached_stats;
          const std::optional<Binding> got =
              cache.solve(cs, a, eca, {}, &cached_stats);
          ++queries;
          EXPECT_EQ(got.has_value(), raw) << "cache verdict diverged";
          EXPECT_EQ(cached_stats.outcome, raw_stats.outcome);
          // A miss runs the raw search; a hit searches nothing.
          if (frontier_hits(cached_stats) == 0) {
            ++misses;
            EXPECT_EQ(cached_stats.nodes, raw_stats.nodes);
          } else {
            hits += frontier_hits(cached_stats);
            EXPECT_EQ(cached_stats.nodes, 0u);
          }
          if (got.has_value()) {
            EXPECT_TRUE(binding_feasible(cs, a, eca, *got))
                << "cached witness fails full revalidation";
          }
        }
      }
    }
    EXPECT_EQ(misses + hits, queries);
    EXPECT_GT(hits, 0u);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: explore with the cache on and off must produce bit-identical
// fronts and pruning-relevant stats; the cache only saves solver nodes.
// ---------------------------------------------------------------------------

void expect_pruning_stats_equal(const ExploreStats& on,
                                const ExploreStats& off) {
  EXPECT_EQ(on.candidates_generated, off.candidates_generated);
  EXPECT_EQ(on.dominated_skipped, off.dominated_skipped);
  EXPECT_EQ(on.possible_allocations, off.possible_allocations);
  EXPECT_EQ(on.flexibility_estimations, off.flexibility_estimations);
  EXPECT_EQ(on.bound_skipped, off.bound_skipped);
  EXPECT_EQ(on.implementation_attempts, off.implementation_attempts);
  EXPECT_EQ(on.solver_calls, off.solver_calls);
  EXPECT_EQ(on.branches_pruned, off.branches_pruned);
}

TEST(BindCacheExplore, SettopFrontAndPruningStatsMatchCacheOff) {
  ExploreOptions with_cache;
  ExploreOptions without_cache;
  without_cache.implementation.use_bind_cache = false;

  const ExploreResult on = explore(settop(), with_cache);
  const ExploreResult off = explore(settop(), without_cache);
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());

  expect_fronts_equal(on, off);
  expect_pruning_stats_equal(on.stats, off.stats);
  EXPECT_EQ(on.stats.solver_calls, 148u);  // pinned seed value

  EXPECT_GT(on.stats.cache_hits_feasible + on.stats.cache_hits_infeasible, 0u);
  EXPECT_GT(on.stats.cache_entries, 0u);
  EXPECT_LT(on.stats.solver_nodes, off.stats.solver_nodes);
  EXPECT_EQ(off.stats.cache_hits_feasible, 0u);
  EXPECT_EQ(off.stats.cache_hits_infeasible, 0u);
  EXPECT_EQ(off.stats.cache_revalidations, 0u);
  EXPECT_EQ(off.stats.cache_entries, 0u);
}

TEST(BindCacheExplore, DecoderFrontAndPruningStatsMatchCacheOff) {
  ExploreOptions with_cache;
  with_cache.stop_at_max_flexibility = false;
  ExploreOptions without_cache = with_cache;
  without_cache.implementation.use_bind_cache = false;

  const ExploreResult on = explore(decoder(), with_cache);
  const ExploreResult off = explore(decoder(), without_cache);
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());

  expect_fronts_equal(on, off);
  expect_pruning_stats_equal(on.stats, off.stats);
  EXPECT_LE(on.stats.solver_nodes, off.stats.solver_nodes);
}

TEST(BindCacheExplore, ParallelSharedCacheFrontMatchesSequential) {
  ExploreOptions options;
  options.num_threads = 4;
  ExploreOptions no_cache = options;
  no_cache.implementation.use_bind_cache = false;

  const ExploreResult par_on = explore(settop(), options);
  const ExploreResult par_off = explore(settop(), no_cache);
  const ExploreResult seq = explore(settop(), ExploreOptions{});
  ASSERT_TRUE(par_on.status.ok());
  ASSERT_TRUE(par_off.status.ok());
  ASSERT_TRUE(seq.status.ok());

  expect_fronts_equal(par_on, par_off);
  expect_fronts_equal(par_on, seq);
  // No counter assertions between the two parallel runs: the in-band
  // flexibility bound reads sibling results as they land, so parallel work
  // counters are schedule-dependent (see docs/ROBUSTNESS.md) — only the
  // front is deterministic.
  EXPECT_GT(par_on.stats.cache_hits_feasible +
                par_on.stats.cache_hits_infeasible,
            0u);
  EXPECT_EQ(par_off.stats.cache_hits_feasible, 0u);
  EXPECT_EQ(par_off.stats.cache_hits_infeasible, 0u);
}

TEST(BindCacheExplore, GeneratedSpecFrontMatchesCacheOff) {
  const SpecificationGraph spec = generate_spec(small_params(42));
  ExploreOptions with_cache;
  with_cache.stop_at_max_flexibility = false;
  ExploreOptions without_cache = with_cache;
  without_cache.implementation.use_bind_cache = false;

  const ExploreResult on = explore(spec, with_cache);
  const ExploreResult off = explore(spec, without_cache);
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());
  expect_fronts_equal(on, off);
  expect_pruning_stats_equal(on.stats, off.stats);
  EXPECT_LE(on.stats.solver_nodes, off.stats.solver_nodes);
}

// ---------------------------------------------------------------------------
// Fault injection: a throw at either insert site must store nothing, leave
// both caches sound, and leave a parallel run resumable.
// ---------------------------------------------------------------------------

#ifdef SDF_FAULT_INJECTION

struct DisarmGuard {
  DisarmGuard() { FaultInjector::disarm_all(); }
  ~DisarmGuard() { FaultInjector::disarm_all(); }
};

/// Arms `site` to throw at the first frontier insert of a miss on (`alloc`,
/// `eca`): the exception escapes, nothing is stored, and the next query
/// re-solves and agrees with the raw solver.  Returns that retry's stats.
template <typename Cache>
SolverStats expect_fault_stores_nothing(const char* site, Cache& cache,
                                        const CompiledSpec& cs,
                                        const AllocSet& alloc,
                                        const Eca& eca) {
  SolverStats faulted;
  FaultInjector::arm(site, FaultKind::kThrow, 1);
  EXPECT_THROW((void)cache.solve(cs, alloc, eca, {}, &faulted),
               FaultInjectedError);
  FaultInjector::disarm_all();
  EXPECT_TRUE(missed(faulted));
  // Both sites fire before the first mutation: nothing was stored.
  EXPECT_EQ(cache.entries(), 0u);

  SolverStats raw_stats;
  const bool raw = solve_binding(cs, alloc, eca, {}, &raw_stats).has_value();
  SolverStats retry;
  const std::optional<Binding> got = cache.solve(cs, alloc, eca, {}, &retry);
  EXPECT_EQ(got.has_value(), raw);
  if (got.has_value()) {
    EXPECT_TRUE(binding_feasible(cs, alloc, eca, *got));
  }
  EXPECT_GE(cache.entries(), 1u);
  return retry;
}

void expect_bind_cache_fault_stores_nothing(const char* site) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache;
  const SolverStats retry =
      expect_fault_stores_nothing(site, cache, cs, full, ecas[0]);
  // The retry was a miss, not a hit fabricated from the fault...
  EXPECT_TRUE(missed(retry));
  EXPECT_EQ(cache.entries(), 1u);
  // ...and the stored fact serves hits again.
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.cache_hits_feasible, 1u);
}

void expect_hier_cache_fault_stores_nothing(const char* site) {
  const CompiledSpec& cs = nested().compiled();
  ASSERT_TRUE(cs.hier_useful());
  const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/1);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  HierCache cache;
  const SolverStats retry =
      expect_fault_stores_nothing(site, cache, cs, full, ecas[0]);
  // Every group of the retry was sub-solved, none answered from the
  // frontier...
  EXPECT_EQ(retry.hier_hits, 0u);
  EXPECT_GT(retry.hier_subsolves, 0u);
  // ...and the stored facts serve hits again.
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.hier_subsolves, 0u);
  EXPECT_GE(st.hier_hits, 1u);
}

TEST(BindCacheFaults, InsertFaultPropagatesAndLeavesTheCacheUsable) {
  DisarmGuard guard;
  expect_bind_cache_fault_stores_nothing("bind_cache.insert");
}

TEST(BindCacheFaults, MergeFaultStoresNothing) {
  DisarmGuard guard;
  expect_bind_cache_fault_stores_nothing("bind_cache.merge");
}

TEST(BindCacheFaults, HierInsertFaultPropagatesAndLeavesTheCacheUsable) {
  DisarmGuard guard;
  expect_hier_cache_fault_stores_nothing("bind_cache.insert");
}

TEST(BindCacheFaults, HierMergeFaultStoresNothing) {
  DisarmGuard guard;
  expect_hier_cache_fault_stores_nothing("bind_cache.merge");
}

TEST(BindCacheFaults, CacheFaultInAParallelRunIsResumable) {
  DisarmGuard guard;
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.num_threads = 2;

  FaultInjector::arm("bind_cache.insert", FaultKind::kThrow, 5);
  const ExploreResult broken = explore(spec, options);
  FaultInjector::disarm_all();

  ASSERT_FALSE(broken.status.ok());
  EXPECT_EQ(broken.stats.stop_reason, StopReason::kWorkerError);
  ASSERT_TRUE(broken.checkpoint.has_value());

  // The cache is derived data: the resumed run starts with a cold cache
  // and must still reproduce the uninterrupted front bit-identically.
  ExploreOptions resumed_options = options;
  resumed_options.resume = &*broken.checkpoint;
  const ExploreResult finished = explore(spec, resumed_options);
  ASSERT_TRUE(finished.status.ok()) << finished.status.error().message;
  EXPECT_EQ(finished.stats.stop_reason, StopReason::kCompleted);

  const ExploreResult uninterrupted = explore(spec, options);
  expect_fronts_equal(finished, uninterrupted);
}

#endif  // SDF_FAULT_INJECTION

}  // namespace
}  // namespace sdf
