// Tests for EXPLORE's cost bands at every thread count, and for the thread
// pool that evaluates them.
//
// The contract under test is strong: for ANY thread count `explore` must
// return the front of the one-thread run — same Pareto points in the same
// order, same allocations, same equivalents, same exhausted flag — and the
// one-thread run is the sequential algorithm, pinned here counter by
// counter.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "explore/allocation_enum.hpp"
#include "explore/explorer.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/thread_pool.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

SpecificationGraph example(const std::string& name) {
  Result<SpecificationGraph> spec =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/" + name + ".json");
  SDF_CHECK(spec.ok(), ("cannot load example spec " + name).c_str());
  return std::move(spec).value();
}

ExploreResult explore_with(const SpecificationGraph& spec,
                           ExploreOptions options, std::size_t threads) {
  options.num_threads = threads;
  return explore(spec, options);
}

void expect_identical(const ExploreResult& seq, const ExploreResult& par) {
  EXPECT_EQ(seq.max_flexibility, par.max_flexibility);
  EXPECT_EQ(seq.stats.exhausted, par.stats.exhausted);
  ASSERT_EQ(seq.front.size(), par.front.size());
  for (std::size_t i = 0; i < seq.front.size(); ++i) {
    SCOPED_TRACE("front row " + std::to_string(i));
    EXPECT_EQ(seq.front[i].cost, par.front[i].cost);
    EXPECT_EQ(seq.front[i].flexibility, par.front[i].flexibility);
    EXPECT_TRUE(seq.front[i].units == par.front[i].units);
    ASSERT_EQ(seq.front[i].equivalents.size(), par.front[i].equivalents.size());
    for (std::size_t j = 0; j < seq.front[i].equivalents.size(); ++j) {
      SCOPED_TRACE("equivalent " + std::to_string(j));
      EXPECT_TRUE(seq.front[i].equivalents[j].units ==
                  par.front[i].equivalents[j].units);
      EXPECT_EQ(seq.front[i].equivalents[j].cost,
                par.front[i].equivalents[j].cost);
      EXPECT_EQ(seq.front[i].equivalents[j].flexibility,
                par.front[i].equivalents[j].flexibility);
    }
  }
}

using CostFlex = std::vector<std::pair<double, double>>;

CostFlex cost_flex(const ExploreResult& result) {
  CostFlex out;
  for (const Implementation& impl : result.front)
    out.emplace_back(impl.cost, impl.flexibility);
  return out;
}

// The paper's Set-Top box front (Fig. 4) and the TV decoder's.
const CostFlex kSetTopFront = {{100, 2}, {120, 3}, {230, 4},
                               {290, 5}, {360, 7}, {430, 8}};
const CostFlex kDecoderFront = {{50, 1}, {80, 2}, {110, 3}, {165, 4}};

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(257);
  ASSERT_TRUE(pool.parallel_for(hits.size(),
                                [&](std::size_t i) { hits[i].fetch_add(1); })
                  .ok());
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SubmitFromWithinTasksAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &sum] {
      sum.fetch_add(1);
      // Nested submission from a worker thread (goes to its own deque).
      pool.submit([&sum] { sum.fetch_add(10); });
    });
  }
  ASSERT_TRUE(pool.wait_idle().ok());
  EXPECT_EQ(sum.load(), 8 + 80);
  // The pool is reusable after an idle barrier.
  ASSERT_TRUE(
      pool.parallel_for(5, [&sum](std::size_t) { sum.fetch_add(100); }).ok());
  EXPECT_EQ(sum.load(), 88 + 500);
}

TEST(ThreadPool, UnevenTaskDurationsAreStolen) {
  // One long task plus many short ones: with stealing, the short tasks
  // finish on other workers and the total equals the submitted count.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  const Status st = pool.parallel_for(64, [&](std::size_t i) {
    if (i == 0) {
      volatile int spin = 0;
      while (spin < 2000000) spin = spin + 1;
    }
    done.fetch_add(1);
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(done.load(), 64);
}

// ---- one thread is the sequential algorithm --------------------------------

/// Pinned one-thread results of the sequential algorithm: the front, all
/// nine checkpointed counters, the stop reason and the certificate, for
/// complete runs and for runs interrupted by an allocation or a solver-node
/// budget.
struct Pin {
  const char* spec;
  std::uint64_t max_allocations;
  std::uint64_t max_solver_nodes;
  CostFlex front;
  ExploreCheckpoint::Counters counters;
  StopReason stop_reason;
  double exact_up_to_cost;
};

/// Names a case by its spec and budget.  Without it gtest prints the raw
/// bytes of `Pin`, `spec`'s address included, and test listings would name
/// the cases differently on every build.
void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.spec;
  if (pin.max_allocations != 0) *os << "_max_allocations_" << pin.max_allocations;
  if (pin.max_solver_nodes != 0)
    *os << "_max_solver_nodes_" << pin.max_solver_nodes;
}

class OneThreadPins : public ::testing::TestWithParam<Pin> {};

TEST_P(OneThreadPins, MatchPinnedValues) {
  const Pin& pin = GetParam();
  const SpecificationGraph spec = example(pin.spec);
  ExploreOptions options;
  options.budget.max_allocations = pin.max_allocations;
  options.budget.max_solver_nodes = pin.max_solver_nodes;
  const ExploreResult result = explore(spec, options);
  ASSERT_TRUE(result.status.ok()) << result.status.error().message;
  EXPECT_EQ(result.stats.threads, 1u);
  EXPECT_EQ(cost_flex(result), pin.front);
  const ExploreCheckpoint::Counters got = checkpoint_counters(result.stats);
  const ExploreCheckpoint::Counters& want = pin.counters;
  EXPECT_EQ(got.candidates_generated, want.candidates_generated);
  EXPECT_EQ(got.dominated_skipped, want.dominated_skipped);
  EXPECT_EQ(got.possible_allocations, want.possible_allocations);
  EXPECT_EQ(got.flexibility_estimations, want.flexibility_estimations);
  EXPECT_EQ(got.bound_skipped, want.bound_skipped);
  EXPECT_EQ(got.implementation_attempts, want.implementation_attempts);
  EXPECT_EQ(got.solver_calls, want.solver_calls);
  EXPECT_EQ(got.solver_nodes, want.solver_nodes);
  EXPECT_EQ(got.budget_abandoned, want.budget_abandoned);
  EXPECT_EQ(result.stats.stop_reason, pin.stop_reason);
  EXPECT_EQ(result.stats.exact_up_to_cost, pin.exact_up_to_cost);
  EXPECT_EQ(result.checkpoint.has_value(),
            pin.stop_reason != StopReason::kCompleted);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, OneThreadPins,
    ::testing::Values(
        Pin{"settop", 0, 0, kSetTopFront,
            {883, 799, 75, 75, 51, 24, 148, 87, 0},
            StopReason::kCompleted, 0.0},
        Pin{"settop", 200, 0, {{100, 2}, {120, 3}},
            {200, 189, 5, 5, 1, 4, 14, 17, 0},
            StopReason::kAllocations, 170.0},
        Pin{"settop", 0, 40, {{100, 2}, {120, 3}, {230, 4}, {290, 5}},
            {753, 696, 48, 48, 32, 16, 72, 34, 1},
            StopReason::kSolverNodes, 350.0},
        Pin{"decoder", 0, 0, kDecoderFront,
            {74, 40, 27, 27, 20, 7, 25, 28, 0},
            StopReason::kCompleted, 0.0},
        Pin{"decoder", 40, 0, {{50, 1}, {80, 2}},
            {40, 27, 6, 6, 3, 3, 5, 8, 0},
            StopReason::kAllocations, 85.0},
        Pin{"decoder", 0, 12, {{50, 1}, {80, 2}, {110, 3}},
            {71, 40, 24, 24, 19, 5, 13, 12, 1},
            StopReason::kSolverNodes, 160.0},
        Pin{"nested", 0, 0, {{950, 11}, {952, 13}, {1255, 15}},
            {187183, 179794, 436, 436, 0, 436, 27904, 106, 0},
            StopReason::kCompleted, 0.0},
        Pin{"nested", 150000, 0, {{950, 11}, {952, 13}},
            {150000, 145001, 8, 8, 0, 8, 512, 74, 0},
            StopReason::kAllocations, 968.0},
        Pin{"nested", 0, 50, {{950, 11}},
            {144944, 140178, 1, 1, 0, 1, 64, 44, 1},
            StopReason::kSolverNodes, 952.0}));

/// Pinned one-thread front and work on generated presets whose searches
/// drive the utilization and capacity flags hard, and on the nested-tile
/// example, which takes the hierarchical path: the binding kernel must keep
/// the same search tree, node for node, and every cache and analyzer
/// counter its value.  `raw` turns off the binding cache, the hierarchical
/// path and the analyzer prefilter, so every query is a real search.
struct KernelCounters {
  std::uint64_t solver_calls;
  std::uint64_t solver_nodes;
  std::uint64_t cache_hits_feasible;
  std::uint64_t cache_hits_infeasible;
  std::uint64_t cache_revalidations;
  std::uint64_t analysis_pruned;
  std::uint64_t hier_subsolves;
  std::uint64_t hier_hits;
  std::uint64_t cache_entries;
  std::uint64_t flat_cache_entries;
};

struct KernelPin {
  std::optional<PlatformPreset> preset;  ///< none: examples/specs/nested.json
  std::uint64_t seed;
  bool raw;
  CostFlex front;
  KernelCounters counters;
};

void PrintTo(const KernelPin& pin, std::ostream* os) {
  if (pin.preset.has_value()) {
    *os << preset_name(*pin.preset) << "_seed_" << pin.seed;
  } else {
    *os << "nested";
  }
  *os << (pin.raw ? "_raw" : "_default");
}

class KernelPins : public ::testing::TestWithParam<KernelPin> {};

TEST_P(KernelPins, MatchPinnedSearchWork) {
  const KernelPin& pin = GetParam();
  const SpecificationGraph spec = pin.preset.has_value()
                                      ? generate_preset(*pin.preset, pin.seed)
                                      : example("nested");
  ExploreOptions options;
  if (pin.raw) {
    options.implementation.use_bind_cache = false;
    options.implementation.use_hier = false;
    options.implementation.use_analysis = false;
  }
  const ExploreResult result = explore(spec, options);
  ASSERT_TRUE(result.status.ok()) << result.status.error().message;
  EXPECT_EQ(cost_flex(result), pin.front);
  const ExploreStats& got = result.stats;
  const KernelCounters& want = pin.counters;
  EXPECT_EQ(got.solver_calls, want.solver_calls);
  EXPECT_EQ(got.solver_nodes, want.solver_nodes);
  EXPECT_EQ(got.cache_hits_feasible, want.cache_hits_feasible);
  EXPECT_EQ(got.cache_hits_infeasible, want.cache_hits_infeasible);
  EXPECT_EQ(got.cache_revalidations, want.cache_revalidations);
  EXPECT_EQ(got.analysis_pruned, want.analysis_pruned);
  EXPECT_EQ(got.hier_subsolves, want.hier_subsolves);
  EXPECT_EQ(got.hier_hits, want.hier_hits);
  EXPECT_EQ(got.cache_entries, want.cache_entries);
  EXPECT_EQ(got.flat_cache_entries, want.flat_cache_entries);
}

const CostFlex kBaseband114Front = {{101, 1}, {347, 3}, {389, 5}, {481, 7},
                                    {484, 8}, {576, 10}, {586, 12}};
const CostFlex kSettopBox64Front = {{63, 1}, {177, 2}, {559, 6}, {691, 7}};

// Counters: solver_calls, solver_nodes, cache_hits_feasible,
// cache_hits_infeasible, cache_revalidations, analysis_pruned,
// hier_subsolves, hier_hits, cache_entries, flat_cache_entries.
INSTANTIATE_TEST_SUITE_P(
    Presets, KernelPins,
    ::testing::Values(
        KernelPin{PlatformPreset::kBasebandDsp, 108, false, {{141, 26}},
                  {565, 19868, 0, 0, 0, 0, 0, 0, 565, 565}},
        KernelPin{PlatformPreset::kBasebandDsp, 108, true, {{141, 26}},
                  {565, 19868, 0, 0, 0, 0, 0, 0, 0, 565}},
        KernelPin{PlatformPreset::kBasebandDsp, 114, false, kBaseband114Front,
                  {1804, 30788, 155, 0, 155, 907, 0, 0, 242, 31}},
        KernelPin{PlatformPreset::kBasebandDsp, 114, true, kBaseband114Front,
                  {1804, 39821, 0, 0, 0, 0, 0, 0, 0, 31}},
        KernelPin{PlatformPreset::kSetTopBox, 64, false, kSettopBox64Front,
                  {6192, 37210, 1015, 0, 1015, 1978, 0, 0, 40, 16}},
        KernelPin{PlatformPreset::kSetTopBox, 64, true, kSettopBox64Front,
                  {6192, 63649, 0, 0, 0, 0, 0, 0, 0, 16}},
        KernelPin{std::nullopt, 0, false, {{950, 11}, {952, 13}, {1255, 15}},
                  {27904, 106, 0, 0, 104412, 10480, 53, 104427, 53, 64}}));

// ---- prepared activations under concurrent callers ------------------------

/// Four threads ask the memo for every activatable set of baseband-dsp
/// 114's universe (156 sets), each in its own order, under a budget that
/// keeps evicting lists: concurrent misses, duplicate builds and evictions
/// must still hand every caller the list `enumerate_ecas` gives.
TEST(PreparedMemoThreads, ConcurrentCallersGetTheEnumeratedLists) {
  const SpecificationGraph spec =
      generate_preset(PlatformPreset::kBasebandDsp, 114);
  const CompiledSpec& cs = spec.compiled();
  cs.set_flat_cache_budget(4, 1 << 16);
  const std::size_t n = cs.unit_count();
  std::unordered_set<DynBitset> seen;
  std::vector<DynBitset> sets;
  AllocSet alloc = cs.make_alloc_set();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    for (std::size_t i = 0; i < n; ++i) alloc.set(i, ((mask >> i) & 1u) != 0);
    const Activatability act(cs, alloc);
    if (act.root_activatable() && seen.insert(act.clusters()).second)
      sets.push_back(act.clusters());
  }
  ASSERT_GT(sets.size(), 100u);
  std::vector<std::vector<Eca>> expected;
  for (const DynBitset& s : sets)
    expected.push_back(enumerate_ecas(cs.problem(), s, 4096));

  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t k = 0; k < sets.size(); ++k) {
          const std::size_t i = (k * (2 * t + 1) + t) % sets.size();
          const std::shared_ptr<const PreparedEcas> got =
              cs.prepared_ecas(sets[i], 4096);
          bool same = got->size() == expected[i].size();
          for (std::size_t e = 0; same && e < got->size(); ++e) {
            const PreparedEca& p = (*got)[e];
            same = p.eca.clusters == expected[i][e].clusters &&
                   p.eca.selection.key() == expected[i][e].selection.key() &&
                   (p.flat == nullptr) == p.groups.empty();
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(cs.prepared_entries(), 4u);
}

/// The band workers share the memo: at four threads under a tiny budget the
/// fronts stay the one-thread fronts.
TEST(PreparedMemoThreads, TinyBudgetKeepsTheFourThreadFronts) {
  const SpecificationGraph settop_spec = models::make_settop_spec();
  const SpecificationGraph baseband =
      generate_preset(PlatformPreset::kBasebandDsp, 114);
  for (const SpecificationGraph* spec : {&settop_spec, &baseband}) {
    const ExploreResult seq = explore(*spec);
    spec->compiled().set_flat_cache_budget(1, 1);
    const ExploreResult par = explore_with(*spec, {}, 4);
    expect_identical(seq, par);
  }
}

// ---- every thread count yields the one-thread front ------------------------

class ParallelThreadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelThreadSweep, SetTopFrontIdenticalToSequential) {
  const ExploreResult seq = explore(settop());
  const ExploreResult par = explore_with(settop(), {}, GetParam());
  EXPECT_EQ(cost_flex(par), kSetTopFront);
  expect_identical(seq, par);
  EXPECT_EQ(par.stats.threads, GetParam());
  EXPECT_GT(par.stats.bands, 0u);
  EXPECT_GT(par.stats.peak_band_size, 0u);
}

TEST_P(ParallelThreadSweep, DecoderFrontMatchesPinned) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const ExploreResult par = explore_with(spec, {}, GetParam());
  EXPECT_EQ(cost_flex(par), kDecoderFront);
  expect_identical(explore(spec), par);
}

TEST_P(ParallelThreadSweep, SetTopEquivalentsIdenticalToSequential) {
  ExploreOptions options;
  options.collect_equivalents = true;
  const ExploreResult seq = explore(settop(), options);
  const ExploreResult par = explore_with(settop(), options, GetParam());
  expect_identical(seq, par);
  // The $230/f=4 tie really is exercised (see explore_test).
  ASSERT_GE(seq.front.size(), 3u);
  EXPECT_FALSE(par.front[2].equivalents.empty());
}

TEST_P(ParallelThreadSweep, SetTopFullWalkIdenticalToSequential) {
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  const ExploreResult seq = explore(settop(), options);
  const ExploreResult par = explore_with(settop(), options, GetParam());
  expect_identical(seq, par);
  EXPECT_TRUE(par.stats.exhausted);
}

TEST_P(ParallelThreadSweep, PresetSpecsIdenticalToSequential) {
  const std::pair<PlatformPreset, std::uint64_t> presets[] = {
      {PlatformPreset::kSetTopBox, 17},
      {PlatformPreset::kAutomotiveEcu, 17},
      {PlatformPreset::kBasebandDsp, 17},
      // The deep-solve case where the pool measurably pays.
      {PlatformPreset::kBasebandDsp, 3}};
  for (const auto& [preset, seed] : presets) {
    SCOPED_TRACE(std::string(preset_name(preset)) + " seed " +
                 std::to_string(seed));
    const SpecificationGraph spec = generate_preset(preset, seed);
    ASSERT_TRUE(spec.validate().ok());
    expect_identical(explore(spec), explore_with(spec, {}, GetParam()));
  }
}

TEST_P(ParallelThreadSweep, ExampleSpecsIdenticalToSequential) {
  for (const char* name : {"settop", "decoder", "nested"}) {
    SCOPED_TRACE(name);
    const SpecificationGraph spec = example(name);
    expect_identical(explore(spec), explore_with(spec, {}, GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelThreadSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelExplore, LargeGeneratedSpecIdenticalToSequential) {
  // A platform with >= 14 allocatable units: big enough that bands overlap
  // several cost levels and the shared bound actually skips work.
  GeneratorParams params;
  params.seed = 23;
  params.applications = 3;
  params.processors = 4;
  params.accelerators = 3;
  params.fpga_configs = 2;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_TRUE(spec.validate().ok());
  ASSERT_GE(spec.alloc_units().size(), 14u);

  const ExploreResult seq = explore(spec);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(seq, explore_with(spec, {}, threads));
  }
}

TEST(ParallelExplore, AdaptiveControllerGrowsMostlyFilteredBands) {
  // On the settop full walk most candidates die in the cheap filters, so
  // the controller must grow bands past their initial capacity (8 per
  // thread), without touching the front.
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  const ExploreResult grown = explore_with(settop(), options, 2);
  ASSERT_TRUE(grown.status.ok());
  EXPECT_GT(grown.stats.peak_band_size, 16u);
  expect_identical(explore(settop(), options), grown);
}

TEST(ParallelExplore, AblationsIdenticalToSequential) {
  for (const bool flex_bound : {false, true}) {
    for (const bool branch_bound : {false, true}) {
      SCOPED_TRACE("flex_bound=" + std::to_string(flex_bound) +
                   " branch_bound=" + std::to_string(branch_bound));
      ExploreOptions options;
      options.use_flexibility_bound = flex_bound;
      options.use_branch_bound = branch_bound;
      expect_identical(explore(settop(), options),
                       explore_with(settop(), options, 4));
    }
  }
}

// ---- max_candidates budget semantics ---------------------------------------

TEST(ParallelExplore, MaxCandidatesCountsOnlyNonEmptyCandidates) {
  // Regression: the empty base allocation used to eat one unit of the
  // candidate budget, so a budget sized to reach exactly the first possible
  // allocation fell one candidate short and inspected nothing useful.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  // Size the budget to the first root-activatable candidate in cost order
  // (the bare uP, $50/f=1 — see explore_test's DecoderSpecFront).
  std::uint64_t budget = 0;
  {
    CostOrderedAllocations stream(spec);
    while (std::optional<AllocSet> a = stream.next()) {
      if (a->none()) continue;
      ++budget;
      if (Activatability(spec, *a).root_activatable()) break;
    }
  }
  ASSERT_GT(budget, 0u);

  ExploreOptions options;
  options.max_candidates = budget;
  options.prune_dominated_allocations = false;  // keep the count exact
  const ExploreResult seq = explore(spec, options);
  ASSERT_EQ(seq.front.size(), 1u);
  EXPECT_EQ(seq.front.front().cost, 50.0);
  EXPECT_EQ(seq.front.front().flexibility, 1.0);
  EXPECT_EQ(seq.stats.possible_allocations, 1u);
  // The engine counts the candidate that trips the cap before breaking.
  EXPECT_EQ(seq.stats.candidates_generated, budget + 1);

  expect_identical(seq, explore_with(spec, options, 2));
}

TEST(ParallelExplore, MaxCandidatesCapStopsEarly) {
  ExploreOptions options;
  options.max_candidates = 10;
  const ExploreResult result = explore_with(settop(), options, 4);
  EXPECT_LE(result.stats.candidates_generated, 11u);
}

// ---- stats plausibility ----------------------------------------------------

TEST(ParallelExplore, PhaseBreakdownCoversTheWork) {
  const ExploreResult result = explore_with(settop(), {}, 2);
  const ExploreStats& s = result.stats;
  EXPECT_EQ(s.threads, 2u);
  EXPECT_GT(s.candidates_generated, 0u);
  EXPECT_GT(s.possible_allocations, 0u);
  EXPECT_GT(s.implementation_attempts, 0u);
  EXPECT_GE(s.wall_seconds, 0.0);
  EXPECT_GT(s.enumerate_seconds + s.evaluate_seconds + s.merge_seconds, 0.0);
  EXPECT_GT(s.filter_cpu_seconds, 0.0);
  EXPECT_GT(s.implement_cpu_seconds, 0.0);
  EXPECT_LE(s.bands * 1u, s.candidates_generated + 1u);
  EXPECT_LE(s.peak_band_size, 4096u);

  // One thread evaluates bands of one and measures no phases.
  const ExploreResult seq = explore(settop());
  EXPECT_EQ(seq.stats.threads, 1u);
  EXPECT_EQ(seq.stats.peak_band_size, 1u);
  EXPECT_EQ(seq.stats.bands, seq.stats.candidates_generated);
  EXPECT_EQ(seq.stats.evaluate_seconds, 0.0);
  EXPECT_EQ(seq.stats.filter_cpu_seconds, 0.0);
}

}  // namespace
}  // namespace sdf
