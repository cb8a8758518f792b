// Fig. 2 — the hierarchical specification graph and binding feasibility.
//
// Regenerates the §2/§4 worked material on the decoder specification:
//   * the infeasible-binding example (P_D^2 on the ASIC with P_U^1 on the
//     FPGA: no connecting bus -> rule 3 violation),
//   * the set A of possible resource allocations (§4 lists its beginning:
//     { uP, uP C1, uP C2, uP C1 C2, uP D3, uP U2, ... }),
// and times the binding solver and the feasibility rules.
#include "bench_common.hpp"

namespace sdf {
namespace {

void print_fig2() {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();

  bench::section("Fig. 2: binding feasibility (rule 3 example)");
  AllocSet alloc = spec.make_alloc_set();
  for (const char* n : {"uP", "A", "U1", "C1", "C2"})
    alloc.set(spec.find_unit(n).index());

  Eca eca;
  eca.selection.select(p, p.find_cluster("gD2"));
  eca.selection.select(p, p.find_cluster("gU1"));
  const FlatGraph flat = flatten(p, eca.selection).value();

  auto assignment = [&](const char* proc, const char* res_leaf,
                        double latency) {
    const NodeId r = spec.architecture().find_node(res_leaf);
    return BindingAssignment{p.find_node(proc), r, spec.unit_of_resource(r),
                             latency};
  };
  Binding infeasible;
  infeasible.assign(assignment("Pa", "uP", 20));
  infeasible.assign(assignment("Pc", "uP", 5));
  infeasible.assign(assignment("Pd2", "A", 25));
  infeasible.assign(assignment("Pu1", "U1.res", 20));
  const Status bad = check_binding(cs, alloc, flat, infeasible);

  Binding feasible;
  feasible.assign(assignment("Pa", "uP", 20));
  feasible.assign(assignment("Pc", "uP", 5));
  feasible.assign(assignment("Pd2", "A", 25));
  feasible.assign(assignment("Pu1", "A", 15));
  const Status good = check_binding(cs, alloc, flat, feasible);

  Table verdicts({"binding", "verdict"});
  verdicts.add_row({"Pd2 -> A,  Pu1 -> FPGA(U1)",
                    bad.ok() ? "feasible (UNEXPECTED)"
                             : "infeasible: " + bad.error().message});
  verdicts.add_row({"Pd2 -> A,  Pu1 -> A",
                    good.ok() ? "feasible" : good.error().message});
  std::printf("%spaper: the first binding is infeasible — no bus connects "
              "ASIC and FPGA.\n",
              verdicts.to_ascii().c_str());

  bench::section("§4: the set A of possible resource allocations");
  const auto pras = enumerate_possible_allocations(cs);
  Table a_list({"#", "allocation", "cost", "estimated f"});
  for (std::size_t i = 0; i < pras.size() && i < 12; ++i) {
    a_list.add_row({std::to_string(i + 1), spec.allocation_names(pras[i]),
                    format_double(cs.allocation_cost(pras[i])),
                    format_double(*estimate_flexibility(cs, pras[i]))});
  }
  std::printf("%s|A| = %zu of %zu subsets (paper lists the prefix "
              "{uP, uP C1, uP C2, uP C1 C2, uP D3, uP U2, ...})\n",
              a_list.to_ascii().c_str(), pras.size(),
              std::size_t{1} << spec.alloc_units().size());

  const auto filtered = enumerate_possible_allocations(cs, true);
  std::printf("with the §5 dominance filter (dangling buses removed): "
              "|A| = %zu\n",
              filtered.size());
}

void BM_CheckBinding(benchmark::State& state) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();
  AllocSet alloc = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) alloc.set(i);
  Eca eca;
  eca.selection.select(p, p.find_cluster("gD1"));
  eca.selection.select(p, p.find_cluster("gU1"));
  const FlatGraph flat = flatten(p, eca.selection).value();
  const auto binding = solve_binding(cs, alloc, eca);
  for (auto _ : state)
    benchmark::DoNotOptimize(check_binding(cs, alloc, flat, *binding));
}
BENCHMARK(BM_CheckBinding);

void BM_SolveBindingDecoder(benchmark::State& state) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const HierarchicalGraph& p = spec.problem();
  AllocSet alloc = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) alloc.set(i);
  Eca eca;
  eca.selection.select(p, p.find_cluster("gD2"));
  eca.selection.select(p, p.find_cluster("gU2"));
  eca.clusters = {p.find_cluster("gD2"), p.find_cluster("gU2")};
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_binding(cs, alloc, eca));
}
BENCHMARK(BM_SolveBindingDecoder);

void BM_SolveBindingSettop(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  const HierarchicalGraph& p = spec.problem();
  AllocSet alloc = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) alloc.set(i);
  Eca eca;
  for (const char* c : {"gD", "gD3", "gU2"}) {
    eca.selection.select(p, p.find_cluster(c));
    eca.clusters.push_back(p.find_cluster(c));
  }
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_binding(cs, alloc, eca));
}
BENCHMARK(BM_SolveBindingSettop);

void BM_PossibleAllocationsDecoder(benchmark::State& state) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const CompiledSpec& cs = spec.compiled();
  for (auto _ : state)
    benchmark::DoNotOptimize(enumerate_possible_allocations(cs));
}
BENCHMARK(BM_PossibleAllocationsDecoder);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_fig2();
  return sdf::bench::run_benchmarks(argc, argv);
}
