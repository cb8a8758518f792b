// §4/§5 scaling claim — "industrial size applications can be efficiently
// explored within minutes".
//
// The paper gives no industrial model, only the claim that typical search
// spaces of 10^5 - 10^12 points reduce to 10^3 - 10^4 possible allocations
// and fewer than ~100 implementation constructions.  This bench sweeps the
// synthetic generator over growing platform/application sizes and reports,
// per size: raw space, possible allocations touched, solver attempts,
// wall-clock for EXPLORE, the exhaustive baseline where tractable, and the
// evolutionary heuristic's quality at equal time budget.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>

#include "bench_common.hpp"
#include "gen/presets.hpp"

// Process-wide heap-allocation counter for the compiled-vs-naive sweep.
// Replacing the two plain forms is enough: the default array and nothrow
// forms forward here.  Aligned-new allocations bypass the counter; none of
// the measured query paths use over-aligned types.
#if defined(__GNUC__) && !defined(__clang__)
// GCC pairs the replaced operator new with the library delete when it
// inlines both sides and mis-reports the (correct) malloc/free pairing.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sdf {
namespace {

GeneratorParams size_params(std::size_t level, std::uint64_t seed) {
  GeneratorParams params;
  params.seed = seed;
  params.applications = 2 + level;
  params.processors = 2;
  params.accelerators = 1 + level / 2;
  params.fpga_configs = 1 + level / 2;
  params.interfaces_per_app_max = 1 + level / 3;
  return params;
}

void print_scaling() {
  bench::section("scaling sweep: EXPLORE vs baselines on synthetic families");
  Table table({"units n", "2^n", "clusters", "f_max", "PRA touched",
               "solver attempts", "front", "EXPLORE ms", "exhaustive ms"});
  for (std::size_t level = 0; level <= 4; ++level) {
    const SpecificationGraph spec = generate_spec(size_params(level, 7));
    const std::size_t n = spec.alloc_units().size();

    const ExploreResult fast = explore(spec);
    std::string brute_ms = "-";
    if (n <= 13) {
      const ExhaustiveResult brute = explore_exhaustive(spec);
      brute_ms = format_double(brute.stats.wall_seconds * 1e3, 1);
    }
    table.add_row({std::to_string(n),
                   format_double(std::pow(2.0, static_cast<double>(n))),
                   std::to_string(spec.problem().all_refinement_clusters().size()),
                   format_double(fast.max_flexibility),
                   std::to_string(fast.stats.possible_allocations),
                   std::to_string(fast.stats.implementation_attempts),
                   std::to_string(fast.front.size()),
                   format_double(fast.stats.wall_seconds * 1e3, 1),
                   brute_ms});
  }
  std::printf("%sshape: solver attempts stay orders of magnitude below the "
              "raw space, as §5 reports (0.0032%% there).\n",
              table.to_ascii().c_str());

  bench::section("domain presets: structure drives the pruning profile");
  {
    Table table({"preset", "units", "clusters", "f_max", "PRA", "attempts",
                 "front", "ms"});
    for (PlatformPreset preset :
         {PlatformPreset::kSetTopBox, PlatformPreset::kAutomotiveEcu,
          PlatformPreset::kBasebandDsp}) {
      const SpecificationGraph spec = generate_preset(preset, 17);
      const ExploreResult r = explore(spec);
      table.add_row(
          {preset_name(preset), std::to_string(spec.alloc_units().size()),
           std::to_string(spec.problem().all_refinement_clusters().size()),
           format_double(r.max_flexibility),
           std::to_string(r.stats.possible_allocations),
           std::to_string(r.stats.implementation_attempts),
           std::to_string(r.front.size()),
           format_double(r.stats.wall_seconds * 1e3, 1)});
    }
    std::printf("%sdeep alternative hierarchies (baseband) push f_max up; "
                "dense hard-real-time apps (automotive) push feasibility "
                "down.\n",
                table.to_ascii().c_str());
  }

  bench::section("heuristic quality at matched effort (seed-averaged)");
  Table ea_table({"units n", "EXPLORE front", "EA front", "EA covered by exact",
                  "EA evals"});
  for (std::size_t level = 0; level <= 2; ++level) {
    const SpecificationGraph spec = generate_spec(size_params(level, 11));
    const ExploreResult exact = explore(spec);
    EaOptions ea;
    ea.seed = 13;
    ea.population = 24;
    ea.generations = 20;
    const EaResult heuristic = explore_evolutionary(spec, ea);
    std::size_t covered = 0;
    for (const Implementation& h : heuristic.front) {
      for (const Implementation& e : exact.front)
        if (e.cost <= h.cost && e.flexibility >= h.flexibility) {
          ++covered;
          break;
        }
    }
    ea_table.add_row({std::to_string(spec.alloc_units().size()),
                      std::to_string(exact.front.size()),
                      std::to_string(heuristic.front.size()),
                      std::to_string(covered),
                      std::to_string(heuristic.stats.evaluations)});
  }
  std::printf("%s", ea_table.to_ascii().c_str());
}

void print_parallel_sweep() {
  bench::section("EXPLORE cost bands: threads sweep");
  // A platform big enough that candidate evaluation dominates wall-clock.
  GeneratorParams params;
  params.seed = 23;
  params.applications = 3;
  params.processors = 4;
  params.accelerators = 3;
  params.fpga_configs = 2;
  const SpecificationGraph generated = generate_spec(params);
  const SpecificationGraph baseband =
      generate_preset(PlatformPreset::kBasebandDsp, 3);
  Result<SpecificationGraph> nested =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  SDF_CHECK(nested.ok(), "cannot load examples/specs/nested.json");

  struct Config {
    const char* name;
    const SpecificationGraph* spec;
    ExploreOptions options;
  };
  // attempt_dominated: with the flexibility-estimate bound off, every
  // possible allocation reaches the NP-complete binding construction — the
  // pool's best case.  paper_default is the §4 configuration as contrast.
  // baseband_dsp_seed3 is a preset whose few candidates need deep binding
  // searches: the workload where the pool pays at the default options.
  // nested_json is stream-bound: the §5 filter rejects 96% of its
  // candidates in microseconds, so the stream, which the merge thread
  // drains, and the pool's cost per candidate decide.
  Config configs[4];
  configs[0].name = "attempt_dominated";
  configs[0].spec = &generated;
  configs[0].options.use_flexibility_bound = false;
  configs[0].options.stop_at_max_flexibility = false;
  configs[1].name = "paper_default";
  configs[1].spec = &generated;
  configs[2].name = "baseband_dsp_seed3";
  configs[2].spec = &baseband;
  configs[3].name = "nested_json";
  configs[3].spec = &nested.value();

  JsonObject doc;
  doc.reserve(4);
  doc.emplace_back("bench", Json("explore_parallel"));
  doc.emplace_back("host", bench::host_metadata());
  doc.emplace_back("hardware_threads", Json(ThreadPool::hardware_threads()));
  JsonArray runs;
  runs.reserve(16);
  Table table({"config", "units", "threads", "wall ms", "evaluate ms",
               "speedup", "front", "attempts"});
  for (Config& config : configs) {
    const SpecificationGraph& spec = *config.spec;
    double base_ms = 0.0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      config.options.num_threads = threads;
      ExploreResult result;
      double wall_ms = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {  // best-of-3 vs scheduler noise
        ExploreResult r = explore(spec, config.options);
        if (r.stats.wall_seconds * 1e3 < wall_ms) {
          wall_ms = r.stats.wall_seconds * 1e3;
          result = std::move(r);
        }
      }
      if (threads == 1) base_ms = wall_ms;
      const double speedup = base_ms / wall_ms;
      table.add_row({config.name, std::to_string(spec.alloc_units().size()),
                     std::to_string(threads),
                     format_double(wall_ms, 1),
                     format_double(result.stats.evaluate_seconds * 1e3, 1),
                     format_double(speedup, 2),
                     std::to_string(result.front.size()),
                     std::to_string(result.stats.implementation_attempts)});
      JsonObject run{
          {"config", Json(config.name)},
          {"spec_units", Json(spec.alloc_units().size())},
          {"threads", Json(threads)},
          {"wall_seconds", Json(wall_ms / 1e3)},
          {"speedup_vs_1_thread", Json(speedup)},
          {"enumerate_seconds", Json(result.stats.enumerate_seconds)},
          {"evaluate_seconds", Json(result.stats.evaluate_seconds)},
          {"merge_seconds", Json(result.stats.merge_seconds)},
          {"bands", Json(static_cast<double>(result.stats.bands))},
          {"peak_band_size", Json(result.stats.peak_band_size)},
          {"implementation_attempts",
           Json(static_cast<double>(result.stats.implementation_attempts))},
          {"front_size", Json(result.front.size())},
      };
      runs.push_back(Json(std::move(run)));
    }
  }
  doc.emplace_back("runs", Json(std::move(runs)));
  std::ofstream out("BENCH_explore_parallel.json");
  out << Json(std::move(doc)).dump(2) << '\n';
  std::printf("%swrote BENCH_explore_parallel.json; speedups are bounded by "
              "the %zu hardware thread(s) of this machine.\n",
              table.to_ascii().c_str(), ThreadPool::hardware_threads());
}

// ---- compiled-vs-naive query sweep -----------------------------------------
//
// The pre-index query logic, duplicated here verbatim as the baseline:
// every call re-scans the mapping-edge list or the architecture edge list
// and builds a fresh vector — exactly what the SpecificationGraph shims did
// before the CompiledSpec index existed.

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
    if (!u.valid()) continue;
    if (std::find(out.begin(), out.end(), u) == out.end()) out.push_back(u);
  }
  return out;
}

double naive_allocation_cost(const SpecificationGraph& spec,
                             const AllocSet& alloc) {
  const std::vector<AllocUnit>& units = spec.alloc_units();
  const HierarchicalGraph& arch = spec.architecture();
  double cost = 0.0;
  DynBitset charged(arch.node_count());
  alloc.for_each([&](std::size_t i) {
    const AllocUnit& u = units[i];
    cost += u.cost;
    if (u.cluster.valid() && !charged.test(u.top.index())) {
      charged.set(u.top.index());
      cost += arch.attr_or(u.top, attr::kCost, 0.0);
    }
  });
  return cost;
}

bool naive_tops_adjacent(const HierarchicalGraph& arch, NodeId a, NodeId b) {
  if (a == b) return true;
  for (const Edge& e : arch.edges())
    if ((e.from == a && e.to == b) || (e.from == b && e.to == a)) return true;
  return false;
}

bool naive_comm_reachable(const SpecificationGraph& spec, const AllocSet& alloc,
                          AllocUnitId a, AllocUnitId b) {
  const std::vector<AllocUnit>& units = spec.alloc_units();
  const HierarchicalGraph& arch = spec.architecture();
  const NodeId ta = units[a.index()].top;
  const NodeId tb = units[b.index()].top;
  if (naive_tops_adjacent(arch, ta, tb)) return true;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!alloc.test(i) || !units[i].is_comm) continue;
    if (naive_tops_adjacent(arch, units[i].top, ta) &&
        naive_tops_adjacent(arch, units[i].top, tb))
      return true;
  }
  return false;
}

struct QueryCost {
  double seconds = 0.0;
  std::uint64_t heap_allocs = 0;
  double checksum = 0.0;  // same fold order both ways -> must match bitwise
};

template <typename Fn>
QueryCost measure_queries(Fn&& body) {
  QueryCost cost;
  const std::uint64_t allocs0 =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  cost.checksum = body();
  const auto t1 = std::chrono::steady_clock::now();
  cost.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
  cost.seconds = std::chrono::duration<double>(t1 - t0).count();
  return cost;
}

void print_compiled_sweep() {
  bench::section("compiled query index vs naive per-call scans");
  // The query mix EXPLORE issues per candidate allocation: one allocation
  // cost, the mapping edges and reachable units of every process, and
  // communication reachability for every unit pair.  Identical fold order
  // on both sides, so the checksums must agree bitwise.
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kAllocs = 24;

  struct Case {
    std::string name;
    SpecificationGraph spec;
  };
  std::vector<Case> cases;
  for (std::size_t level = 0; level <= 4; ++level)
    cases.push_back({"synthetic L" + std::to_string(level),
                     generate_spec(size_params(level, 7))});
  {
    // The large preset from the parallel sweep: candidate evaluation
    // dominates, the regime the index exists for.
    GeneratorParams params;
    params.seed = 23;
    params.applications = 3;
    params.processors = 4;
    params.accelerators = 3;
    params.fpga_configs = 2;
    cases.push_back({"large preset", generate_spec(params)});
  }

  JsonObject doc;
  doc.reserve(4);
  doc.emplace_back("bench", Json("compiled_explore"));
  doc.emplace_back("host", bench::host_metadata());
  doc.emplace_back("query_rounds", Json(kRounds));
  doc.emplace_back("allocations_sampled", Json(kAllocs));
  JsonArray runs;
  runs.reserve(cases.size());
  Table table({"case", "units", "naive ms", "compiled ms", "speedup",
               "naive allocs", "compiled allocs", "alloc ratio",
               "explore ms", "index ms"});
  for (Case& c : cases) {
    const SpecificationGraph& spec = c.spec;
    const std::size_t n = spec.alloc_units().size();
    const std::size_t nodes = spec.problem().node_count();

    Rng rng(41);
    std::vector<AllocSet> allocs;
    allocs.reserve(kAllocs);
    for (std::size_t i = 0; i < kAllocs; ++i) {
      AllocSet a(n);
      for (std::size_t u = 0; u < n; ++u)
        if (rng.chance(0.5)) a.set(u);
      allocs.push_back(std::move(a));
    }
    std::vector<std::pair<AllocUnitId, AllocUnitId>> pairs;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b)
        pairs.emplace_back(AllocUnitId{a}, AllocUnitId{b});

    const QueryCost naive = measure_queries([&] {
      double checksum = 0.0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const AllocSet& alloc : allocs) {
          checksum += naive_allocation_cost(spec, alloc);
          for (std::size_t p = 0; p < nodes; ++p) {
            for (const MappingEdge& m : naive_mappings_of(spec, NodeId{p}))
              checksum += m.latency;
            for (AllocUnitId u : naive_reachable_units(spec, NodeId{p}))
              checksum += static_cast<double>(u.index());
          }
          for (const auto& [a, b] : pairs)
            if (naive_comm_reachable(spec, alloc, a, b)) checksum += 1.0;
        }
      }
      return checksum;
    });

    const CompiledSpec& cs = spec.compiled();  // built outside the timer;
                                               // the build cost is the
                                               // "index ms" column
    const QueryCost compiled = measure_queries([&] {
      double checksum = 0.0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const AllocSet& alloc : allocs) {
          checksum += cs.allocation_cost(alloc);
          for (std::size_t p = 0; p < nodes; ++p) {
            for (const CompiledMapping& m : cs.mappings_of(NodeId{p}))
              checksum += m.latency;
            for (AllocUnitId u : cs.reachable_unit_list(NodeId{p}))
              checksum += static_cast<double>(u.index());
          }
          for (const auto& [a, b] : pairs)
            if (cs.comm_reachable(alloc, a, b)) checksum += 1.0;
        }
      }
      return checksum;
    });
    SDF_CHECK(naive.checksum == compiled.checksum,
              "compiled index diverged from the naive reference");

    // Copy resets the spec's compiled cache, so this run pays (and reports)
    // the real index build rather than hitting the sweep's warm index.
    const SpecificationGraph fresh = spec;
    const ExploreResult result = explore(fresh);

    const double speedup =
        compiled.seconds > 0.0 ? naive.seconds / compiled.seconds : 0.0;
    const double alloc_ratio =
        static_cast<double>(naive.heap_allocs) /
        static_cast<double>(std::max<std::uint64_t>(compiled.heap_allocs, 1));
    table.add_row({c.name, std::to_string(n),
                   format_double(naive.seconds * 1e3, 2),
                   format_double(compiled.seconds * 1e3, 2),
                   format_double(speedup, 1),
                   std::to_string(naive.heap_allocs),
                   std::to_string(compiled.heap_allocs),
                   format_double(alloc_ratio, 1),
                   format_double(result.stats.wall_seconds * 1e3, 1),
                   format_double(result.stats.index_build_seconds * 1e3, 2)});
    JsonObject run{
        {"case", Json(c.name)},
        {"units", Json(n)},
        {"processes", Json(nodes)},
        {"naive_wall_seconds", Json(naive.seconds)},
        {"compiled_wall_seconds", Json(compiled.seconds)},
        {"query_speedup", Json(speedup)},
        {"naive_heap_allocations",
         Json(static_cast<double>(naive.heap_allocs))},
        {"compiled_heap_allocations",
         Json(static_cast<double>(compiled.heap_allocs))},
        {"heap_allocation_ratio", Json(alloc_ratio)},
        {"explore_wall_seconds", Json(result.stats.wall_seconds)},
        {"index_build_seconds", Json(result.stats.index_build_seconds)},
        {"front_size", Json(result.front.size())},
    };
    runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("runs", Json(std::move(runs)));
  std::ofstream out("BENCH_compiled_explore.json");
  out << Json(std::move(doc)).dump(2) << '\n';
  std::printf("%swrote BENCH_compiled_explore.json; the naive side re-scans "
              "edge lists and allocates per call, the compiled side reads "
              "CSR spans and bitsets built once per spec.\n",
              table.to_ascii().c_str());
}

void BM_ExploreSynthetic(benchmark::State& state) {
  const SpecificationGraph spec = generate_spec(
      size_params(static_cast<std::size_t>(state.range(0)), 7));
  for (auto _ : state) benchmark::DoNotOptimize(explore(spec));
  state.counters["units"] =
      static_cast<double>(spec.alloc_units().size());
}
BENCHMARK(BM_ExploreSynthetic)->DenseRange(0, 3);

void BM_ExhaustiveSynthetic(benchmark::State& state) {
  const SpecificationGraph spec = generate_spec(
      size_params(static_cast<std::size_t>(state.range(0)), 7));
  if (spec.alloc_units().size() > 13) {
    state.SkipWithError("universe too large");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(explore_exhaustive(spec));
}
BENCHMARK(BM_ExhaustiveSynthetic)->DenseRange(0, 1);

void BM_GenerateSpec(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_spec(
        size_params(static_cast<std::size_t>(state.range(0)), 7)));
  }
}
BENCHMARK(BM_GenerateSpec)->DenseRange(0, 4);

void BM_ExploreThreads(benchmark::State& state) {
  GeneratorParams params;
  params.seed = 23;
  params.applications = 3;
  params.processors = 4;
  params.accelerators = 3;
  params.fpga_configs = 2;
  const SpecificationGraph spec = generate_spec(params);
  ExploreOptions options;
  options.use_flexibility_bound = false;
  options.stop_at_max_flexibility = false;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(explore(spec, options));
}
BENCHMARK(BM_ExploreThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_scaling();
  sdf::print_parallel_sweep();
  sdf::print_compiled_sweep();
  return sdf::bench::run_benchmarks(argc, argv);
}
