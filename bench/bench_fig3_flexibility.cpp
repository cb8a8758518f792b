// Fig. 3 — the flexibility of the Set-Top box problem graph.
//
// Regenerates the paper's worked flexibility computation:
//   f(G_P) = a+(G_P) * [ f(gI) + f(gG) + f(gD) ]  with the maximum 8 when
// every cluster is activatable and 5 when the game cluster gG is excluded,
// plus a full ablation table (every application cluster knocked out in
// turn) and the weighted-sum variant of footnote 2.  Timings cover Def. 4
// evaluation and flexibility estimation on allocations.
#include <set>
#include <string>

#include "bench_common.hpp"
#include "flex/interchange.hpp"

namespace sdf {
namespace {

void print_fig3() {
  const SpecificationGraph spec = models::make_settop_spec();
  const HierarchicalGraph& p = spec.problem();

  bench::section("Fig. 3: flexibility of the Set-Top problem graph (Def. 4)");
  Table table({"a+ excludes", "f(G_P)", "paper"});
  auto f_without = [&](std::set<std::string> excluded) {
    return flexibility(p, [&](ClusterId c) {
      return !excluded.contains(p.cluster(c).name);
    });
  };
  table.add_row({"(nothing)", format_double(f_without({})), "8 (maximum)"});
  table.add_row({"gG", format_double(f_without({"gG"})), "5"});
  table.add_row({"gI", format_double(f_without({"gI"})), "-"});
  table.add_row({"gD", format_double(f_without({"gD"})), "-"});
  table.add_row({"gG3", format_double(f_without({"gG3"})), "-"});
  table.add_row({"gD3", format_double(f_without({"gD3"})), "-"});
  table.add_row({"gU2", format_double(f_without({"gU2"})), "-"});
  table.add_row({"gD1,gD2,gD3", format_double(f_without({"gD1", "gD2", "gD3"})),
                 "- (TV dies: no decryptor)"});
  std::printf("%s", table.to_ascii().c_str());

  bench::section("per-cluster subtree flexibilities");
  Table subtrees({"cluster", "f(subtree)", "paper"});
  auto sub = [&](const char* name) {
    return format_double(flexibility(p, p.find_cluster(name),
                                     [](ClusterId) { return true; }));
  };
  subtrees.add_row({"gI (browser)", sub("gI"), "1"});
  subtrees.add_row({"gG (game)", sub("gG"), "3"});
  subtrees.add_row({"gD (TV)", sub("gD"), "(3+2)-1 = 4"});
  std::printf("%s", subtrees.to_ascii().c_str());

  bench::section("§3: interchanges (complete behaviors) vs Def. 4");
  {
    Table bt({"activatable set", "behaviors", "flexibility f"});
    auto row = [&](const char* label, const std::set<std::string>& excluded) {
      const auto pred = [&](ClusterId c) {
        return !excluded.contains(p.cluster(c).name);
      };
      bt.add_row({label, format_double(behavior_count(p, pred)),
                  format_double(flexibility(p, pred))});
    };
    row("all clusters", {});
    row("without gG", {"gG"});
    row("without gU2", {"gU2"});
    row("without decryptors", {"gD1", "gD2", "gD3"});
    std::printf(
        "%sDef. 4 adds where the interchange count multiplies "
        "(1 + 3 + 3*2 = 10 behaviors vs f = 8).\n"
        "note the last row: raw Def. 4 still credits the TV cluster "
        "(f = 5 > 4 behaviors) although no decryptor exists — its "
        "correction term assumes live interfaces.  The exploration never "
        "sees this: activatability zeroes clusters with dead interfaces "
        "before Def. 4 is applied (flex/activatability.hpp).\n",
        bt.to_ascii().c_str());
  }

  bench::section("footnote 2: weighted flexibility");
  HierarchicalGraph weighted = p;  // copy; weight the TV decryptors higher
  weighted.set_attr(weighted.find_cluster("gD3"), kFlexWeightAttr, 3.0);
  Table wt({"variant", "f"});
  wt.add_row({"uniform weights",
              format_double(weighted_flexibility(
                  p, [](ClusterId) { return true; }))});
  wt.add_row({"gD3 weighted 3x",
              format_double(weighted_flexibility(
                  weighted, [](ClusterId) { return true; }))});
  std::printf("%s", wt.to_ascii().c_str());

  bench::section("flexibility estimates per §5 allocation (reachability only)");
  Table est({"allocation", "estimated f", "paper"});
  auto estimate = [&](std::initializer_list<const char*> names) {
    AllocSet a = spec.make_alloc_set();
    for (const char* n : names) a.set(spec.find_unit(n).index());
    const auto f = estimate_flexibility(spec.compiled(), a);
    return f.has_value() ? format_double(*f) : std::string("infeasible");
  };
  est.add_row({"uP2", estimate({"uP2"}), "3"});
  est.add_row({"uP1", estimate({"uP1"}), "-"});
  est.add_row({"uP2 C1 G1 U2", estimate({"uP2", "C1", "G1", "U2"}), "-"});
  est.add_row({"uP2 A1 C2", estimate({"uP2", "A1", "C2"}), "-"});
  est.add_row({"A1 (alone)", estimate({"A1"}), "- (no controller host)"});
  std::printf("%s", est.to_ascii().c_str());
}

void BM_MaxFlexibilitySettop(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  for (auto _ : state)
    benchmark::DoNotOptimize(max_flexibility(spec.problem()));
}
BENCHMARK(BM_MaxFlexibilitySettop);

void BM_FlexibilityEstimate(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  AllocSet a = spec.make_alloc_set();
  a.set(spec.find_unit("uP2").index());
  a.set(spec.find_unit("A1").index());
  a.set(spec.find_unit("C2").index());
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state)
    benchmark::DoNotOptimize(estimate_flexibility(cs, a));
}
BENCHMARK(BM_FlexibilityEstimate);

void BM_FlexibilitySynthetic(benchmark::State& state) {
  GeneratorParams params;
  params.seed = 1;
  params.applications = static_cast<std::size_t>(state.range(0));
  const SpecificationGraph spec = generate_spec(params);
  for (auto _ : state)
    benchmark::DoNotOptimize(max_flexibility(spec.problem()));
}
BENCHMARK(BM_FlexibilitySynthetic)->Range(2, 32);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_fig3();
  return sdf::bench::run_benchmarks(argc, argv);
}
