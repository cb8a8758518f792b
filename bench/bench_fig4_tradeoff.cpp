// Fig. 4 — the cost / (1/flexibility) tradeoff curve.
//
// Regenerates the paper's design-space picture on the case study: the
// Pareto-optimal points in (cost, 1/f) space, the number of design points
// each of them dominates (the pruned "boxes" of Fig. 4), and front quality
// indicators.  Timings cover Pareto archiving and the indicator
// computations.
#include "bench_common.hpp"

namespace sdf {
namespace {

void print_fig4() {
  const SpecificationGraph spec = models::make_settop_spec();
  const ExploreResult result = explore(spec);

  bench::section("Fig. 4: flexibility/cost design space (case study)");
  // Dominance counting needs the feasible cloud: use the exhaustive run.
  const ExhaustiveResult brute = explore_exhaustive(spec);
  std::vector<ParetoPoint> cloud;
  {
    // Re-evaluate every feasible allocation to place the cloud.
    // explore_exhaustive only returns the front, so rebuild the cloud here.
    const std::size_t n = spec.alloc_units().size();
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
      AllocSet a = spec.make_alloc_set();
      for (std::size_t i = 0; i < n; ++i)
        if (mask & (std::uint64_t{1} << i)) a.set(i);
      if (const auto impl = build_implementation(spec.compiled(), a))
        cloud.push_back(
            ParetoPoint{impl->cost, 1.0 / impl->flexibility, 0});
    }
  }

  Table curve({"cost c", "1/f", "f", "feasible points dominated"});
  for (const Implementation& impl : result.front) {
    const ParetoPoint p{impl.cost, 1.0 / impl.flexibility, 0};
    std::size_t dominated = 0;
    for (const ParetoPoint& q : cloud)
      if (dominates(p, q)) ++dominated;
    curve.add_row({format_double(impl.cost),
                   format_double(1.0 / impl.flexibility, 4),
                   format_double(impl.flexibility),
                   std::to_string(dominated)});
  }
  std::printf("%sfeasible design points total: %zu; Pareto-optimal: %zu "
              "(paper: 6)\n",
              curve.to_ascii().c_str(), cloud.size(), result.front.size());
  std::printf("exhaustive front identical: %s\n",
              brute.front.size() == result.front.size() ? "yes" : "NO");

  bench::section("front quality indicators");
  const double ref_cost = 600.0, ref_inv = 1.0;
  Table ind({"indicator", "value"});
  ind.add_row({"hypervolume (ref 600, 1)",
               format_double(
                   hypervolume(result.tradeoff_curve(), ref_cost, ref_inv))});
  ind.add_row({"points on front", std::to_string(result.front.size())});
  if (const auto knee = knee_index(result.tradeoff_curve())) {
    const Implementation& k = result.front[*knee];
    ind.add_row({"knee point (best marginal tradeoff)",
                 "$" + format_double(k.cost) + " f=" +
                     format_double(k.flexibility) + " (" +
                     spec.allocation_names(k.units) + ")"});
  }
  std::printf("%s", ind.to_ascii().c_str());
}

void BM_ParetoArchiveInsert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<ParetoPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    points.push_back(
        ParetoPoint{rng.uniform_double(0, 1), rng.uniform_double(0, 1), i});
  for (auto _ : state) {
    ParetoArchive archive;
    for (const ParetoPoint& p : points) archive.insert(p);
    benchmark::DoNotOptimize(archive.size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParetoArchiveInsert)->Range(64, 4096)->Complexity();

void BM_Hypervolume(benchmark::State& state) {
  Rng rng(2);
  std::vector<ParetoPoint> points;
  for (std::size_t i = 0; i < 512; ++i)
    points.push_back(
        ParetoPoint{rng.uniform_double(0, 1), rng.uniform_double(0, 1), i});
  for (auto _ : state)
    benchmark::DoNotOptimize(hypervolume(points, 1.0, 1.0));
}
BENCHMARK(BM_Hypervolume);

void BM_TradeoffCurveEndToEnd(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  for (auto _ : state) {
    const ExploreResult result = explore(spec);
    benchmark::DoNotOptimize(result.tradeoff_curve());
  }
}
BENCHMARK(BM_TradeoffCurveEndToEnd);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_fig4();
  return sdf::bench::run_benchmarks(argc, argv);
}
