// Static analyzer: its whole-spec bounds contain the solved front.
//
// The analyzer answers whole-spec questions once (lint SDF017-SDF021, the
// `sdf explore` preflight, `sdf analyze`); the exploration engines do not
// consult it.  This bench asserts — not samples — that every front point
// lies inside the whole-spec cost interval, and times building the
// analysis.
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "bench_common.hpp"
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

void die(const std::string& workload, const char* what) {
  std::fprintf(stderr, "FATAL: %s: %s\n", workload.c_str(), what);
  std::exit(1);
}

void print_bounds(JsonObject& doc) {
  bench::section("static analyzer: whole-spec bounds contain the front");
  Table table({"workload", "units", "front", "root lo", "root hi",
               "cheapest point"});
  JsonArray runs;
  for (const Workload& w : workloads()) {
    ExploreOptions options;
    options.stop_at_max_flexibility = false;  // full §4 walk
    const ExploreResult run = explore(w.spec, options);
    const SpecAnalysis analysis(w.spec.compiled());
    const ClusterBounds& root = analysis.root_bounds();
    for (const Implementation& impl : run.front)
      if (impl.cost + 1e-9 < root.lo) die(w.name, "front point below lo");
    if (!run.front.empty() && !root.reachable())
      die(w.name, "nonempty front declared unreachable");

    const double cheapest = run.front.empty() ? 0.0 : run.front.front().cost;
    table.add_row({w.name, std::to_string(w.spec.alloc_units().size()),
                   std::to_string(run.front.size()), format_double(root.lo),
                   format_double(root.hi), format_double(cheapest)});
    JsonObject entry{
        {"workload", Json(w.name)},
        {"units", Json(w.spec.alloc_units().size())},
        {"front_size", Json(run.front.size())},
        {"root_lo", Json(root.lo)},
        {"root_hi", Json(root.hi)},
        {"front_min_cost", Json(cheapest)},
    };
    runs.push_back(Json(std::move(entry)));
  }
  doc.emplace_back("runs", Json(std::move(runs)));
  std::printf("%s", table.to_ascii().c_str());
}

void bm_analysis_build(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state) {
    SpecAnalysis analysis(cs);
    benchmark::DoNotOptimize(analysis.root_bounds().lo);
  }
}
BENCHMARK(bm_analysis_build);

void bm_allocation_infeasible(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec& cs = spec.compiled();
  const SpecAnalysis analysis(cs);
  AllocSet alloc = cs.make_alloc_set();
  for (std::size_t i = 0; i < cs.unit_count(); i += 2) alloc.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis.allocation_infeasible(alloc));
  }
}
BENCHMARK(bm_allocation_infeasible);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::JsonObject doc;
  doc.emplace_back("bench", sdf::Json("analysis"));
  doc.emplace_back("host", sdf::bench::host_metadata());
  sdf::print_bounds(doc);
  {
    std::ofstream out("BENCH_analysis.json");
    out << sdf::Json(std::move(doc)).dump(2) << '\n';
  }
  std::printf("wrote BENCH_analysis.json\n");
  return sdf::bench::run_benchmarks(argc, argv);
}
