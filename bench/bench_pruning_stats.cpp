// §5 pruning statistics — the search-space reduction funnel.
//
// The paper reports, for the case study: a raw space of 2^25 design
// points, a possible-resource-allocation set that removes ~99.9% of it,
// ~1050 candidates (0.0032% of the raw space) reaching the binding
// construction, and 6 Pareto points.  Our universe is the 13 allocatable
// units of the Fig. 5 platform, so absolute numbers differ; the *shape* —
// two cheap boolean reductions discarding almost everything before the
// NP-complete solver runs — is the reproduced result.
//
// The ablation table quantifies each reduction separately, including the
// paper-faithful configuration (no branch bound, which is our addition).
#include "bench_common.hpp"

namespace sdf {
namespace {

void print_funnel() {
  const SpecificationGraph spec = models::make_settop_spec();

  bench::section("§5: search-space reduction funnel (case study)");
  const ExploreResult r = explore(spec);
  const double raw = r.stats.raw_design_points;
  Table funnel({"stage", "count", "fraction of raw space"});
  auto frac = [&](double v) { return format_double(100.0 * v / raw, 4) + " %"; };
  funnel.add_row({"raw design points (2^13)", format_double(raw), "100 %"});
  funnel.add_row({"candidates generated (cost order)",
                  std::to_string(r.stats.candidates_generated),
                  frac(static_cast<double>(r.stats.candidates_generated))});
  funnel.add_row({"dominated allocations skipped",
                  std::to_string(r.stats.dominated_skipped),
                  frac(static_cast<double>(r.stats.dominated_skipped))});
  funnel.add_row({"possible resource allocations",
                  std::to_string(r.stats.possible_allocations),
                  frac(static_cast<double>(r.stats.possible_allocations))});
  funnel.add_row({"flexibility estimate > incumbent (solver runs)",
                  std::to_string(r.stats.implementation_attempts),
                  frac(static_cast<double>(r.stats.implementation_attempts))});
  funnel.add_row({"Pareto-optimal implementations",
                  std::to_string(r.front.size()),
                  frac(static_cast<double>(r.front.size()))});
  std::printf("%spaper shape: 2^25 -> ~0.1%% possible allocations -> "
              "0.0032%% solver attempts -> 6 Pareto points\n",
              funnel.to_ascii().c_str());

  bench::section("ablation: which reduction does the work?");
  Table ablation({"configuration", "candidates", "PRA", "solver attempts",
                  "solver calls", "front", "ms"});
  auto row = [&](const char* name, ExploreOptions options) {
    const ExploreResult res = explore(spec, options);
    ablation.add_row(
        {name, std::to_string(res.stats.candidates_generated),
         std::to_string(res.stats.possible_allocations),
         std::to_string(res.stats.implementation_attempts),
         std::to_string(res.stats.solver_calls),
         std::to_string(res.front.size()),
         format_double(res.stats.wall_seconds * 1e3, 1)});
  };
  row("full EXPLORE (all reductions)", {});
  {
    ExploreOptions o;
    o.use_branch_bound = false;
    row("paper-faithful (no branch bound)", o);
  }
  {
    ExploreOptions o;
    o.use_flexibility_bound = false;
    row("no flexibility estimation", o);
  }
  {
    ExploreOptions o;
    o.prune_dominated_allocations = false;
    row("no dominance filter", o);
  }
  {
    ExploreOptions o;
    o.use_branch_bound = false;
    o.use_flexibility_bound = false;
    o.prune_dominated_allocations = false;
    row("no reductions (cost-ordered brute force)", o);
  }
  const ExhaustiveResult brute = explore_exhaustive(spec);
  ablation.add_row({"exhaustive baseline (§4's 2^n)",
                    std::to_string(brute.stats.subsets), "-",
                    std::to_string(brute.stats.implementation_attempts),
                    std::to_string(brute.stats.solver_calls),
                    std::to_string(brute.front.size()),
                    format_double(brute.stats.wall_seconds * 1e3, 1)});
  std::printf("%sall configurations find the identical 6-point front; the "
              "reductions only change the work.\n",
              ablation.to_ascii().c_str());
}

void BM_ExploreFull(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  for (auto _ : state) benchmark::DoNotOptimize(explore(spec));
}
BENCHMARK(BM_ExploreFull);

void BM_ExploreNoEstimation(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.use_flexibility_bound = false;
  for (auto _ : state) benchmark::DoNotOptimize(explore(spec, options));
}
BENCHMARK(BM_ExploreNoEstimation);

void BM_DominanceFilter(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("uP2").index());
  a.set(spec.find_unit("C1").index());
  const CompiledSpec& cs = spec.compiled();
  const DominanceContext ctx(cs);  // built once per spec, as the engines do
  for (auto _ : state)
    benchmark::DoNotOptimize(obviously_dominated(cs, ctx, a));
}
BENCHMARK(BM_DominanceFilter);

void BM_PossibleAllocationTest(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("uP2").index());
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state)
    benchmark::DoNotOptimize(is_possible_allocation(cs, a));
}
BENCHMARK(BM_PossibleAllocationTest);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_funnel();
  return sdf::bench::run_benchmarks(argc, argv);
}
