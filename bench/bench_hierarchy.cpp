// Hierarchy-native binding: flatten-and-solve vs per-group memoized solve.
//
// On specs whose clusters decompose at their interfaces (the
// `preset_nested_*` family: repeated templates over disjoint unit pools),
// the flat kernel re-searches the product of all tile choices once per ECA,
// while the hierarchical path (HierCache) solves each decomposition group
// once per (port signature, projected allocation) and reuses the verdict
// across every ECA that shares the sub-tree.  This bench runs the same
// query stream through both paths and reports the search nodes avoided.
// Correctness is asserted, not sampled: every verdict must match, every
// hierarchical witness must pass the full feasibility check, and at the
// explore level the two fronts must be identical.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bind/bind_cache.hpp"
#include "bind/solver.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/eca.hpp"
#include "spec/compiled.hpp"

namespace sdf {
namespace {

/// The examples/specs/nested.json shape: small enough for a full explore.
GeneratorParams small_nested(std::uint64_t seed) {
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

struct Workload {
  std::string name;
  SpecificationGraph spec;
  std::size_t eca_limit;  ///< cap on enumerated ECAs for the kernel sweep
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"nested_small_s7", generate_spec(small_nested(7)), 0});
  out.push_back(
      {"preset_nested_s_s7", generate_preset(PlatformPreset::kNestedS, 7), 512});
  out.push_back(
      {"preset_nested_m_s7", generate_preset(PlatformPreset::kNestedM, 7), 256});
  return out;
}

void die(const std::string& workload, const char* what) {
  std::fprintf(stderr, "FATAL: %s: hierarchical and flat runs differ (%s)\n",
               workload.c_str(), what);
  std::exit(1);
}

// ---- per-query kernel sweep: solve_binding vs HierCache::solve ------------

/// Runs every (full allocation, ECA) query through the flat kernel and the
/// hierarchical path, asserts verdict identity and witness validity, and
/// reports nodes + wall time for each side.
void print_kernel_sweep(JsonObject& doc) {
  bench::section(
      "hierarchical solve: per-ECA kernel work, flatten-always vs per-group "
      "memoization (verdicts asserted identical)");
  Table table({"workload", "units", "ecas", "nodes flat", "nodes hier",
               "nodes saved", "subsolves", "hits", "wall flat ms",
               "wall hier ms"});

  JsonArray runs;
  using Clock = std::chrono::steady_clock;

  for (const Workload& w : workloads()) {
    const CompiledSpec& cs = w.spec.compiled();
    AllocSet full = cs.make_alloc_set();
    for (std::size_t i = 0; i < full.size(); ++i) full.set(i);
    const Activatability act(cs, full);
    const std::vector<Eca> ecas =
        enumerate_ecas(cs.problem(), act.clusters(), w.eca_limit);
    if (ecas.empty()) die(w.name, "no ECAs");
    if (!cs.hier_useful()) die(w.name, "workload does not decompose");

    // Flat side.  The flatten cache is shared state on CompiledSpec; both
    // sides benefit from it equally, so it is left at its defaults.
    SolverStats flat_stats;
    std::vector<bool> flat_verdicts;
    flat_verdicts.reserve(ecas.size());
    const auto t0 = Clock::now();
    for (const Eca& eca : ecas)
      flat_verdicts.push_back(
          solve_binding(cs, full, eca, {}, &flat_stats).has_value());
    const double wall_flat =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // Hierarchical side, same queries in the same order.
    HierCache hier;
    SolverStats hier_stats;
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < ecas.size(); ++i) {
      const std::optional<Binding> b =
          hier.solve(cs, full, ecas[i], {}, &hier_stats);
      if (b.has_value() != flat_verdicts[i]) die(w.name, "verdict");
      if (b.has_value() && !binding_feasible(cs, full, ecas[i], *b))
        die(w.name, "witness");
    }
    const double wall_hier =
        std::chrono::duration<double>(Clock::now() - t1).count();

    const double saved =
        flat_stats.nodes == 0
            ? 0.0
            : 1.0 - static_cast<double>(hier_stats.nodes) /
                        static_cast<double>(flat_stats.nodes);
    const std::uint64_t hits = hier_stats.hier_hits;
    table.add_row({w.name, std::to_string(w.spec.alloc_units().size()),
                   std::to_string(ecas.size()),
                   std::to_string(flat_stats.nodes),
                   std::to_string(hier_stats.nodes),
                   format_double(saved * 100.0, 1) + "%",
                   std::to_string(hier_stats.hier_subsolves),
                   std::to_string(hits),
                   format_double(wall_flat * 1e3, 2),
                   format_double(wall_hier * 1e3, 2)});
    JsonObject run{
        {"workload", Json(w.name)},
        {"units", Json(w.spec.alloc_units().size())},
        {"ecas", Json(ecas.size())},
        {"solver_nodes_flat", Json(static_cast<double>(flat_stats.nodes))},
        {"solver_nodes_hier", Json(static_cast<double>(hier_stats.nodes))},
        {"nodes_saved_frac", Json(saved)},
        {"hier_subsolves",
         Json(static_cast<double>(hier_stats.hier_subsolves))},
        {"hier_hits", Json(static_cast<double>(hits))},
        {"cache_entries", Json(static_cast<double>(hier.entries()))},
        {"wall_seconds_flat", Json(wall_flat)},
        {"wall_seconds_hier", Json(wall_hier)},
    };
    runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("kernel_sweep", Json(std::move(runs)));
  std::printf(
      "%sverdicts asserted identical per query; hier witnesses revalidated "
      "by the full checker.\n",
      table.to_ascii().c_str());
}

// ---- explore-level: full front with the hierarchical path on vs off ------

void print_explore_comparison(JsonObject& doc) {
  bench::section(
      "explore: hierarchical path on vs off (fronts asserted identical)");
  const SpecificationGraph spec = generate_spec(small_nested(7));
  ExploreOptions off_options;
  off_options.stop_at_max_flexibility = false;
  off_options.implementation.use_hier = false;
  ExploreOptions on_options = off_options;
  on_options.implementation.use_hier = true;

  const ExploreResult off = explore(spec, off_options);
  const ExploreResult on = explore(spec, on_options);

  if (on.front.size() != off.front.size()) die("nested_small_s7", "front size");
  for (std::size_t i = 0; i < on.front.size(); ++i) {
    if (on.front[i].cost != off.front[i].cost ||
        on.front[i].flexibility != off.front[i].flexibility ||
        !(on.front[i].units == off.front[i].units))
      die("nested_small_s7", "front row");
  }
  if (on.stats.solver_calls != off.stats.solver_calls)
    die("nested_small_s7", "solver_calls");

  const double saved =
      off.stats.solver_nodes == 0
          ? 0.0
          : 1.0 - static_cast<double>(on.stats.solver_nodes) /
                      static_cast<double>(off.stats.solver_nodes);
  Table table({"workload", "front", "solver calls", "nodes off", "nodes on",
               "nodes saved", "subsolves", "hits", "wall off ms",
               "wall on ms"});
  table.add_row({"nested_small_s7", std::to_string(on.front.size()),
                 std::to_string(on.stats.solver_calls),
                 std::to_string(off.stats.solver_nodes),
                 std::to_string(on.stats.solver_nodes),
                 format_double(saved * 100.0, 1) + "%",
                 std::to_string(on.stats.hier_subsolves),
                 std::to_string(on.stats.hier_hits),
                 format_double(off.stats.wall_seconds * 1e3, 2),
                 format_double(on.stats.wall_seconds * 1e3, 2)});
  std::printf("%s", table.to_ascii().c_str());

  JsonObject run{
      {"workload", Json("nested_small_s7")},
      {"front_size", Json(on.front.size())},
      {"solver_calls", Json(static_cast<double>(on.stats.solver_calls))},
      {"solver_nodes_off", Json(static_cast<double>(off.stats.solver_nodes))},
      {"solver_nodes_on", Json(static_cast<double>(on.stats.solver_nodes))},
      {"nodes_saved_frac", Json(saved)},
      {"hier_subsolves", Json(static_cast<double>(on.stats.hier_subsolves))},
      {"hier_hits", Json(static_cast<double>(on.stats.hier_hits))},
      {"wall_seconds_off", Json(off.stats.wall_seconds)},
      {"wall_seconds_on", Json(on.stats.wall_seconds)},
  };
  doc.emplace_back("explore", Json(std::move(run)));
}

// ---- google-benchmark timings ---------------------------------------------

void BM_NestedExploreNoHier(benchmark::State& state) {
  const SpecificationGraph spec = generate_spec(small_nested(7));
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  options.implementation.use_hier = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(explore(spec, options).front.size());
}
BENCHMARK(BM_NestedExploreNoHier);

void BM_NestedExploreHier(benchmark::State& state) {
  const SpecificationGraph spec = generate_spec(small_nested(7));
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(explore(spec, options).front.size());
}
BENCHMARK(BM_NestedExploreHier);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::JsonObject doc;
  doc.emplace_back("bench", sdf::Json("hierarchy"));
  doc.emplace_back("host", sdf::bench::host_metadata());
  sdf::print_kernel_sweep(doc);
  sdf::print_explore_comparison(doc);
  {
    std::ofstream out("BENCH_hierarchy.json");
    out << sdf::Json(std::move(doc)).dump(2) << '\n';
  }
  std::printf("wrote BENCH_hierarchy.json\n");
  return sdf::bench::run_benchmarks(argc, argv);
}
