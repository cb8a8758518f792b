// Cross-allocation binding cache: solver work saved at equal verdicts.
//
// EXPLORE queries the NP-complete binding solver once per (allocation, ECA)
// pair; neighboring allocations in the §4 cost-ordered stream share most of
// their units, so most verdicts are implied by earlier ones through the
// allocation-lattice monotonicity the cache exploits.  This bench runs the
// same exploration with the cache off and on for each workload and reports
// the search nodes avoided.  Correctness is asserted, not sampled: the two
// fronts and the query count (`solver_calls`) must be bit-identical — the
// cache may only change *how* a verdict is obtained, never the verdict.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bind/bind_cache.hpp"
#include "bind/eca.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

struct Workload {
  std::string name;
  SpecificationGraph spec;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"settop", models::make_settop_spec()});
  out.push_back({"tv_decoder", models::make_tv_decoder_spec()});
  out.push_back({"preset_settopbox_s7",
                 generate_preset(PlatformPreset::kSetTopBox, 7)});
  out.push_back({"preset_automotive_s7",
                 generate_preset(PlatformPreset::kAutomotiveEcu, 7)});
  out.push_back({"preset_baseband_s7",
                 generate_preset(PlatformPreset::kBasebandDsp, 7)});
  return out;
}

/// Best-of-N explore (wall time is scheduler-noisy; counters are not).
ExploreResult best_of(const SpecificationGraph& spec,
                      const ExploreOptions& options, int reps) {
  ExploreResult best;
  double wall = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    ExploreResult r = explore(spec, options);
    if (r.stats.wall_seconds < wall) {
      wall = r.stats.wall_seconds;
      best = std::move(r);
    }
  }
  return best;
}

void die(const std::string& workload, const char* what) {
  std::fprintf(stderr, "FATAL: %s: cache-on and cache-off runs differ (%s)\n",
               workload.c_str(), what);
  std::exit(1);
}

void print_cache_savings(JsonObject& doc) {
  bench::section(
      "binding cache: solver work with the cache off vs on (same fronts)");
  Table table({"workload", "units", "solver calls", "nodes off", "nodes on",
               "nodes saved", "hits", "revalid", "entries", "wall off ms",
               "wall on ms"});

  JsonArray runs;

  for (const Workload& w : workloads()) {
    ExploreOptions off_options;
    off_options.stop_at_max_flexibility = false;  // full §4 walk
    off_options.implementation.use_bind_cache = false;
    ExploreOptions on_options = off_options;
    on_options.implementation.use_bind_cache = true;

    const ExploreResult off = best_of(w.spec, off_options, 3);
    const ExploreResult on = best_of(w.spec, on_options, 3);

    // The cache must be invisible in everything except work counters.
    if (on.front.size() != off.front.size()) die(w.name, "front size");
    for (std::size_t i = 0; i < on.front.size(); ++i) {
      if (on.front[i].cost != off.front[i].cost ||
          on.front[i].flexibility != off.front[i].flexibility ||
          !(on.front[i].units == off.front[i].units))
        die(w.name, "front row");
    }
    if (on.stats.solver_calls != off.stats.solver_calls)
      die(w.name, "solver_calls");

    const double saved =
        off.stats.solver_nodes == 0
            ? 0.0
            : 1.0 - static_cast<double>(on.stats.solver_nodes) /
                        static_cast<double>(off.stats.solver_nodes);
    const std::uint64_t hits =
        on.stats.cache_hits_feasible + on.stats.cache_hits_infeasible;
    table.add_row({w.name, std::to_string(w.spec.alloc_units().size()),
                   std::to_string(on.stats.solver_calls),
                   std::to_string(off.stats.solver_nodes),
                   std::to_string(on.stats.solver_nodes),
                   format_double(saved * 100.0, 1) + "%",
                   std::to_string(hits),
                   std::to_string(on.stats.cache_revalidations),
                   std::to_string(on.stats.cache_entries),
                   format_double(off.stats.wall_seconds * 1e3, 2),
                   format_double(on.stats.wall_seconds * 1e3, 2)});
    JsonObject run{
        {"workload", Json(w.name)},
        {"units", Json(w.spec.alloc_units().size())},
        {"front_size", Json(on.front.size())},
        {"solver_calls", Json(static_cast<double>(on.stats.solver_calls))},
        {"solver_nodes_off",
         Json(static_cast<double>(off.stats.solver_nodes))},
        {"solver_nodes_on", Json(static_cast<double>(on.stats.solver_nodes))},
        {"nodes_saved_frac", Json(saved)},
        {"cache_hits_feasible",
         Json(static_cast<double>(on.stats.cache_hits_feasible))},
        {"cache_hits_infeasible",
         Json(static_cast<double>(on.stats.cache_hits_infeasible))},
        {"cache_revalidations",
         Json(static_cast<double>(on.stats.cache_revalidations))},
        {"cache_entries", Json(static_cast<double>(on.stats.cache_entries))},
        {"wall_seconds_off", Json(off.stats.wall_seconds)},
        {"wall_seconds_on", Json(on.stats.wall_seconds)},
    };
    runs.push_back(Json(std::move(run)));
  }
  doc.emplace_back("runs", Json(std::move(runs)));
  std::printf("%sfronts and solver_calls asserted identical cache-on/off.\n",
              table.to_ascii().c_str());
}

// ---- warm-cache probe cost ------------------------------------------------

/// Per-query cost of the read path on a warm cache, where every query is a
/// hit: the shard lock, the frontier scan, the witness copy and its
/// revalidation, exactly as `BindCache::solve` ships them.
void print_read_overhead(JsonObject& doc) {
  bench::section("binding cache: warm-cache probe cost per hit");

  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec cs(spec);

  // Query set: full allocation, every drop-one-unit neighbor, and the ECAs
  // activatable under the full allocation — the shape of neighboring §4
  // stream entries that makes cross-allocation hits the common case.
  AllocSet full = cs.make_alloc_set();
  for (std::size_t i = 0; i < full.size(); ++i) full.set(i);
  std::vector<AllocSet> allocs{full};
  for (std::size_t u = 0; u < full.size(); ++u) {
    AllocSet a = full;
    a.reset(u);
    allocs.push_back(a);
  }
  const Activatability act(cs, full);
  const std::vector<Eca> ecas = enumerate_ecas(cs.problem(), act.clusters());

  BindCache cache;
  for (const AllocSet& a : allocs)
    for (const Eca& e : ecas) (void)cache.solve(cs, a, e);

  using Clock = std::chrono::steady_clock;
  const std::size_t queries = allocs.size() * ecas.size();
  constexpr int kRounds = 5;
  constexpr int kPasses = 200;
  double ns_per_hit = std::numeric_limits<double>::infinity();
  SolverStats probes;  // every timed call's counters
  for (int round = 0; round < kRounds; ++round) {
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (int p = 0; p < kPasses; ++p)
      for (const AllocSet& a : allocs)
        for (const Eca& e : ecas)
          sink += cache.solve(cs, a, e, {}, &probes).has_value();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    benchmark::DoNotOptimize(sink);
    ns_per_hit = std::min(ns_per_hit, ns / (kPasses * queries));
  }

  // A call the frontier did not answer is a miss.
  const std::uint64_t misses =
      std::uint64_t{kRounds} * kPasses * queries -
      (probes.cache_hits_feasible + probes.cache_hits_infeasible);
  if (misses != 0) die("read_overhead", "probe pass missed");

  Table table({"queries", "entries", "ns/hit"});
  table.add_row({std::to_string(queries), std::to_string(cache.entries()),
                 format_double(ns_per_hit, 2)});
  std::printf("%s", table.to_ascii().c_str());

  JsonObject ro{
      {"queries", Json(queries)},
      {"entries", Json(static_cast<double>(cache.entries()))},
      {"ns_per_hit", Json(ns_per_hit)},
  };
  doc.emplace_back("read_overhead", Json(std::move(ro)));
}

// ---- google-benchmark timings for the hot paths ---------------------------

void BM_ExploreCacheOff(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  options.implementation.use_bind_cache = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(explore(spec, options).front.size());
}
BENCHMARK(BM_ExploreCacheOff);

void BM_ExploreCacheOn(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(explore(spec, options).front.size());
}
BENCHMARK(BM_ExploreCacheOn);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::JsonObject doc;
  doc.emplace_back("bench", sdf::Json("bind_cache"));
  doc.emplace_back("host", sdf::bench::host_metadata());
  sdf::print_cache_savings(doc);
  sdf::print_read_overhead(doc);
  {
    std::ofstream out("BENCH_bind_cache.json");
    out << sdf::Json(std::move(doc)).dump(2) << '\n';
  }
  std::printf("wrote BENCH_bind_cache.json\n");
  return sdf::bench::run_benchmarks(argc, argv);
}
