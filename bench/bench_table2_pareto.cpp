// §5 results table — the six Pareto-optimal Set-Top box implementations.
//
// Regenerates the paper's central result:
//
//   | Resources              | Clusters                  |  c    | f |
//   | uP2                    | gI, gD1, gU1              | $100  | 2 |
//   | uP1                    | gI, gG1, gD1, gU1         | $120  | 3 |
//   | uP2, G1, U2, C1        | ... gU2                   | $230  | 4 |
//   | uP2, D3, G1, U2, C1    | ... gD3                   | $290  | 5 |
//   | uP2, A1, C2            | ... gG2, gG3, gD2         | $360  | 7 |
//   | uP2, A1, D3, C1, C2    | all                       | $430  | 8 |
//
// and verifies row-by-row agreement with the published values.  The
// google-benchmark part times the full EXPLORE run and the per-row
// implementation construction.
#include "bench_common.hpp"

namespace sdf {
namespace {

void print_table() {
  const SpecificationGraph spec = models::make_settop_spec();
  const ExploreResult result = explore(spec);

  bench::section("§5: Pareto-optimal solutions of the Set-Top box case study");
  const auto& expected = models::settop_expected_front();
  Table table({"Resources", "Clusters", "c", "f", "matches paper"});
  std::size_t matches = 0;
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    const Implementation& impl = result.front[i];
    std::string clusters;
    for (ClusterId c : impl.leaf_clusters(spec.problem())) {
      if (!clusters.empty()) clusters += ", ";
      clusters += spec.problem().cluster(c).name;
    }
    bool ok = i < expected.size() &&
              impl.cost == expected[i].cost &&
              impl.flexibility == expected[i].flexibility &&
              spec.allocation_names(impl.units) == expected[i].resources &&
              clusters == expected[i].clusters;
    matches += ok;
    table.add_row({spec.allocation_names(impl.units), clusters,
                   "$" + format_double(impl.cost),
                   format_double(impl.flexibility), ok ? "yes" : "NO"});
  }
  std::printf("%s%zu/%zu rows match the published table\n",
              table.to_ascii().c_str(), matches, expected.size());

  bench::section("per-row detail: minimal switching covers");
  Table covers({"Resources", "feasible ECAs", "minimal cover"});
  for (const Implementation& impl : result.front) {
    covers.add_row({spec.allocation_names(impl.units),
                    std::to_string(impl.ecas.size()),
                    std::to_string(impl.minimal_cover(spec.problem()).size())});
  }
  std::printf("%s", covers.to_ascii().c_str());
}

void BM_ExploreCaseStudy(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  for (auto _ : state) benchmark::DoNotOptimize(explore(spec));
}
BENCHMARK(BM_ExploreCaseStudy);

void BM_ExhaustiveCaseStudy(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  for (auto _ : state) benchmark::DoNotOptimize(explore_exhaustive(spec));
}
BENCHMARK(BM_ExhaustiveCaseStudy);

void BM_BuildImplementationRow(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  const auto& expected = models::settop_expected_front();
  const ExploreResult result = explore(spec);
  const AllocSet alloc =
      result.front[static_cast<std::size_t>(state.range(0))].units;
  (void)expected;
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state)
    benchmark::DoNotOptimize(build_implementation(cs, alloc));
}
BENCHMARK(BM_BuildImplementationRow)->DenseRange(0, 5);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_table();
  return sdf::bench::run_benchmarks(argc, argv);
}
